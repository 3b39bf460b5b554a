//! Detecting and correcting allocation clashes (Section 3).
//!
//! "Given the decentralised mechanisms used, we cannot guarantee that
//! clashes will not occur, but we can detect those that do occur and
//! provide a mechanism to cause an announcement to be modified."
//!
//! The paper's three-phase approach, implemented here as a per-site
//! state machine driven by the session directory's announcement stream:
//!
//! 1. A site whose **long-standing** session clashes re-sends its own
//!    announcement immediately (typically after a healed network
//!    partition) — existing sessions defend their addresses.
//! 2. A site that **just announced** (within a small window) and sees a
//!    clash assumes it lost the race (propagation delay) and immediately
//!    re-announces with a **modified address**.
//! 3. A **third party** that sees a new announcement clash with a cached
//!    session waits a random delay (exponential suppression, Section
//!    3.1) for the originator or another third party to react, then
//!    re-announces the cached session on the originator's behalf —
//!    covering originators that are partitioned away or temporarily
//!    deaf.
//!
//! The rule "existing sessions will not be disrupted by new sessions"
//! falls out of phases 1 and 3: the *newer* announcement is always the
//! one modified.

use sdalloc_sim::suppression::exponential_delay;
use sdalloc_sim::{SimDuration, SimRng, SimTime};
use sdalloc_telemetry::{CounterId, HistogramId, Severity, Telemetry, NO_ARG};

use crate::addr::Addr;

/// Identifies a session globally (originating site id, local session
/// number) — the moral equivalent of SAP's (source, msg-id hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId {
    /// Originating site.
    pub site: u32,
    /// Per-site sequence number: the full 64-bit SDP `o=` session id,
    /// so two sessions of one site never share a key.
    pub seq: u64,
}

/// Configuration of the clash responder.
#[derive(Debug, Clone)]
pub struct ClashPolicy {
    /// How recently a session must have been announced for a clash to be
    /// attributed to propagation delay (phase 2 vs phase 1).
    pub recent_window: SimDuration,
    /// Earliest third-party response delay: "D1 is chosen so that the
    /// originator of an announcement can be expected to have had a
    /// chance to reply and suppress all other receivers."
    pub d1: SimDuration,
    /// Latest third-party response delay.
    pub d2: SimDuration,
    /// Bucket width (max RTT scale) for the exponential delay.
    pub rtt: SimDuration,
}

impl Default for ClashPolicy {
    fn default() -> Self {
        ClashPolicy {
            recent_window: SimDuration::from_secs(10),
            d1: SimDuration::from_millis(500),
            d2: SimDuration::from_secs(8),
            rtt: SimDuration::from_millis(200),
        }
    }
}

/// What the responder wants the session directory to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClashAction {
    /// Phase 1: re-send our own announcement for `session` unchanged,
    /// immediately.
    DefendOwn {
        /// The long-standing session to defend.
        session: SessionId,
    },
    /// Phase 2: our recent announcement lost the race; re-announce
    /// `session` with a freshly allocated address.
    ModifyOwn {
        /// The recently announced session to move.
        session: SessionId,
        /// The clashing address to abandon.
        old_addr: Addr,
    },
    /// Phase 3 (armed): we will defend the cached session at `fire_at`
    /// unless someone else acts first.
    ThirdPartyArmed {
        /// The cached session we may defend.
        session: SessionId,
        /// When our timer expires.
        fire_at: SimTime,
    },
    /// Phase 3 (fired): re-announce the cached `session` on behalf of
    /// its originator.
    DefendThirdParty {
        /// The cached session to defend.
        session: SessionId,
    },
}

/// A pending third-party defence timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PendingDefense {
    /// The cached session we may defend.
    pub session: SessionId,
    /// The clashing address the defence is about.
    pub addr: Addr,
    /// When the timer expires.
    pub fire_at: SimTime,
}

/// Our relationship to the session already holding an address when a
/// clashing announcement arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Incumbent {
    /// We originated it, first announced at the contained time.
    Ours {
        /// When we first announced it.
        announced_at: SimTime,
        /// Whether we win the deterministic tiebreak against the
        /// clashing announcer.  The paper leaves the two-long-standing-
        /// sessions case (post-partition-heal) unresolved — "it may
        /// retract its own announcement or tell the other announcer to
        /// perform the retraction, or both" — so implementations need a
        /// total order to avoid a mutual-defence livelock; we use the
        /// (origin address, session id) tuple, lowest keeps the address.
        wins_tiebreak: bool,
    },
    /// Someone else's session, present in our cache.
    Cached,
}

/// The responder's pure protocol state: the armed third-party defence
/// timers, kept sorted by `(fire_at, session, addr)` so equal protocol
/// states have equal representations (the model checker hashes them).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClashState {
    pending: Vec<PendingDefense>,
}

impl ClashState {
    /// The empty state: nothing armed.
    pub fn new() -> Self {
        ClashState::default()
    }

    /// Number of armed third-party defences.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Earliest pending defence expiry, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.iter().map(|p| p.fire_at).min()
    }

    /// The armed defences, in canonical order.
    pub fn pending(&self) -> &[PendingDefense] {
        &self.pending
    }

    /// Arm `defense` without the per-`(session, addr)` idempotence check
    /// of [`clash_step`].  Fault-injection hook: the model checker's
    /// seeded-violation tests use it to rebuild the pre-fix double-arm
    /// behaviour and prove the checker catches it.  Not for protocol
    /// drivers — duplicated timers mean duplicated authoritative
    /// responses.
    pub fn arm_unchecked(&mut self, defense: PendingDefense) {
        self.pending.push(defense);
        self.pending
            .sort_unstable_by_key(|p| (p.fire_at, p.session, p.addr));
    }
}

/// An input to the clash responder machine.
///
/// The driver (the session directory, or the model checker) owns the
/// clock and the RNG: `Clash` carries the pre-sampled third-party delay
/// and `Poll` carries the current time, so the transition function
/// itself is pure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClashEvent {
    /// A new announcement arrived using `addr`, which our cache says
    /// `incumbent` already holds for `incumbent_session`.
    Clash {
        /// Current time.
        now: SimTime,
        /// The contested address.
        addr: Addr,
        /// The session our cache says holds `addr`.
        incumbent_session: SessionId,
        /// Our relationship to that session.
        incumbent: Incumbent,
        /// Pre-sampled third-party response delay (used only when
        /// `incumbent` is [`Incumbent::Cached`]; the driver draws it
        /// from [`exponential_delay`] over `[D1, D2]`).
        third_party_delay: SimDuration,
    },
    /// An announcement for `session` was heard (the originator defended,
    /// or another third party beat us to it).
    AnnouncementSeen {
        /// The announced session.
        session: SessionId,
    },
    /// The clash on `addr` was resolved another way (the new session
    /// moved off it).
    ClashResolved {
        /// The address no longer contested.
        addr: Addr,
    },
    /// Time advanced to `now`: expired defence timers fire.
    Poll {
        /// Current time.
        now: SimTime,
    },
}

/// Advance the clash responder by one event.  Pure: same
/// `(state, event)` always yields the same `(state', actions)`.
///
/// Arming is **idempotent per `(session, addr)`**: a duplicated or
/// re-delivered clash announcement re-reports the already-armed timer
/// instead of arming a second one.  (The bounded model checker found
/// the double-arm: under message duplication a site with two timers for
/// one session fires two third-party defences — two authoritative
/// responses to one clash.)
pub fn clash_step(
    policy: &ClashPolicy,
    state: &ClashState,
    event: &ClashEvent,
) -> (ClashState, Vec<ClashAction>) {
    let mut next = state.clone();
    let mut actions = Vec::new();
    match *event {
        ClashEvent::Clash {
            now,
            addr,
            incumbent_session,
            incumbent,
            third_party_delay,
        } => match incumbent {
            Incumbent::Ours {
                announced_at,
                wins_tiebreak,
            } => {
                if now.saturating_since(announced_at) <= policy.recent_window {
                    // Phase 2: we only just announced; the clash is
                    // probably propagation delay and we yield.
                    actions.push(ClashAction::ModifyOwn {
                        session: incumbent_session,
                        old_addr: addr,
                    });
                } else if wins_tiebreak {
                    // Phase 1: long-standing session defends itself.
                    actions.push(ClashAction::DefendOwn {
                        session: incumbent_session,
                    });
                } else {
                    // Both sessions are long-standing (a healed
                    // partition): the tiebreak loser moves.
                    actions.push(ClashAction::ModifyOwn {
                        session: incumbent_session,
                        old_addr: addr,
                    });
                }
            }
            Incumbent::Cached => {
                let existing = next
                    .pending
                    .iter()
                    .find(|p| p.session == incumbent_session && p.addr == addr);
                let fire_at = match existing {
                    // Already armed for this clash: keep the original
                    // timer — never two defences for one clash.
                    Some(p) => p.fire_at,
                    None => {
                        let fire_at = now + third_party_delay;
                        next.pending.push(PendingDefense {
                            session: incumbent_session,
                            addr,
                            fire_at,
                        });
                        next.pending
                            .sort_unstable_by_key(|p| (p.fire_at, p.session, p.addr));
                        fire_at
                    }
                };
                actions.push(ClashAction::ThirdPartyArmed {
                    session: incumbent_session,
                    fire_at,
                });
            }
        },
        ClashEvent::AnnouncementSeen { session } => {
            next.pending.retain(|p| p.session != session);
        }
        ClashEvent::ClashResolved { addr } => {
            next.pending.retain(|p| p.addr != addr);
        }
        ClashEvent::Poll { now } => {
            next.pending.retain(|p| {
                if p.fire_at <= now {
                    actions.push(ClashAction::DefendThirdParty { session: p.session });
                    false
                } else {
                    true
                }
            });
        }
    }
    (next, actions)
}

/// Pre-registered metric ids for the clash responder (registration is
/// idempotent, so rebuilding them against a preserved [`Telemetry`]
/// after a restart reuses the existing slots).
#[derive(Debug, Clone, Copy)]
struct ClashMetrics {
    defend_own: CounterId,
    modify_own: CounterId,
    armed: CounterId,
    fired: CounterId,
    /// Sampled third-party defence delay, milliseconds.
    delay_ms: HistogramId,
}

impl ClashMetrics {
    /// Bucket bounds for the defence-delay histogram (ms): the paper's
    /// `[D1, D2]` window is 0.5–8 s, so the buckets straddle it.
    const DELAY_BOUNDS_MS: [u64; 6] = [250, 500, 1_000, 2_000, 4_000, 8_000];

    fn register(t: &mut Telemetry) -> Self {
        ClashMetrics {
            defend_own: t.counter("clash.defend_own"),
            modify_own: t.counter("clash.modify_own"),
            armed: t.counter("clash.third_party_armed"),
            fired: t.counter("clash.third_party_fired"),
            delay_ms: t.histogram("clash.defence_delay_ms", &Self::DELAY_BOUNDS_MS),
        }
    }
}

/// The per-site clash responder: a thin driver over [`clash_step`] that
/// owns the policy, samples the third-party delay, and records its
/// decisions into a [`Telemetry`] bundle (the pure [`clash_step`]
/// itself stays uninstrumented so the model checker drives it
/// unchanged).
#[derive(Debug, Clone)]
pub struct ClashResponder {
    policy: ClashPolicy,
    state: ClashState,
    telemetry: Telemetry,
    metrics: ClashMetrics,
}

impl ClashResponder {
    /// Create a responder with the given policy and a disabled
    /// telemetry bundle (drivers that want traces swap one in with
    /// [`ClashResponder::set_telemetry`]).
    pub fn new(policy: ClashPolicy) -> Self {
        Self::with_telemetry(policy, Telemetry::disabled())
    }

    /// Create a responder recording into `telemetry`.
    pub fn with_telemetry(policy: ClashPolicy, mut telemetry: Telemetry) -> Self {
        let metrics = ClashMetrics::register(&mut telemetry);
        ClashResponder {
            policy,
            state: ClashState::new(),
            telemetry,
            metrics,
        }
    }

    /// The responder's telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replace the telemetry bundle (counters re-register
    /// idempotently) — used to carry accumulated metrics across a
    /// directory restart, which rebuilds the responder.
    pub fn set_telemetry(&mut self, mut telemetry: Telemetry) {
        self.metrics = ClashMetrics::register(&mut telemetry);
        self.telemetry = telemetry;
    }

    /// Move the telemetry bundle out (leaving a disabled one behind).
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::replace(&mut self.telemetry, Telemetry::disabled())
    }

    /// Handle a detected clash: a new announcement arrived using `addr`,
    /// which our cache says `incumbent` already holds.  Returns the
    /// action to take now (phases 1/2 act immediately; phase 3 arms a
    /// timer).
    pub fn on_clash(
        &mut self,
        now: SimTime,
        addr: Addr,
        incumbent_session: SessionId,
        incumbent: Incumbent,
        rng: &mut SimRng,
    ) -> ClashAction {
        // Sample only on the path that consumes randomness, so the
        // refactor to a pure step function leaves every seeded
        // simulation's RNG stream untouched.
        let third_party_delay = match incumbent {
            Incumbent::Cached => {
                let d = exponential_delay(rng, self.policy.d1, self.policy.d2, self.policy.rtt);
                debug_assert!(
                    d >= self.policy.d1 && d <= self.policy.d2,
                    "third-party delay outside [D1, D2]"
                );
                d
            }
            Incumbent::Ours { .. } => SimDuration::ZERO,
        };
        let armed_before = self.state.pending_count();
        let (next, mut actions) = clash_step(
            &self.policy,
            &self.state,
            &ClashEvent::Clash {
                now,
                addr,
                incumbent_session,
                incumbent,
                third_party_delay,
            },
        );
        self.state = next;
        debug_assert_eq!(actions.len(), 1, "a clash maps to exactly one action");
        let action = actions.pop().unwrap_or(ClashAction::DefendOwn {
            session: incumbent_session,
        });
        match &action {
            ClashAction::DefendOwn { .. } => {
                self.telemetry.inc(self.metrics.defend_own);
                self.telemetry.record(
                    now.as_nanos(),
                    Severity::Info,
                    "clash",
                    "defend_own",
                    [("addr", u64::from(addr.0)), NO_ARG, NO_ARG],
                );
            }
            ClashAction::ModifyOwn { .. } => {
                self.telemetry.inc(self.metrics.modify_own);
                self.telemetry.record(
                    now.as_nanos(),
                    Severity::Warn,
                    "clash",
                    "modify_own",
                    [("addr", u64::from(addr.0)), NO_ARG, NO_ARG],
                );
            }
            ClashAction::ThirdPartyArmed { fire_at, .. } => {
                // Count (and sample the delay of) only fresh arms: a
                // duplicated clash re-reports the existing timer.
                if self.state.pending_count() > armed_before {
                    self.telemetry.inc(self.metrics.armed);
                    let delay_ms = fire_at.saturating_since(now).as_nanos() / 1_000_000;
                    self.telemetry.observe(self.metrics.delay_ms, delay_ms);
                    self.telemetry.record(
                        now.as_nanos(),
                        Severity::Info,
                        "defend",
                        "third_party_armed",
                        [("addr", u64::from(addr.0)), ("delay_ms", delay_ms), NO_ARG],
                    );
                }
            }
            ClashAction::DefendThirdParty { .. } => {}
        }
        action
    }

    /// Note that an announcement for `session` was heard (the originator
    /// defended, or another third party beat us to it): suppress any
    /// pending defence of that session.
    pub fn on_announcement_seen(&mut self, session: SessionId) {
        let (next, _) = clash_step(
            &self.policy,
            &self.state,
            &ClashEvent::AnnouncementSeen { session },
        );
        self.state = next;
    }

    /// Note that the clash on `addr` was resolved another way (the new
    /// session moved): cancel defences armed for that address.
    pub fn on_clash_resolved(&mut self, addr: Addr) {
        let (next, _) = clash_step(
            &self.policy,
            &self.state,
            &ClashEvent::ClashResolved { addr },
        );
        self.state = next;
    }

    /// Advance time: fire any expired third-party defences.
    pub fn poll(&mut self, now: SimTime) -> Vec<ClashAction> {
        let (next, actions) = clash_step(&self.policy, &self.state, &ClashEvent::Poll { now });
        self.state = next;
        for action in &actions {
            if let ClashAction::DefendThirdParty { session } = action {
                self.telemetry.inc(self.metrics.fired);
                self.telemetry.record(
                    now.as_nanos(),
                    Severity::Info,
                    "defend",
                    "third_party_fired",
                    [
                        ("site", u64::from(session.site)),
                        ("seq", session.seq),
                        NO_ARG,
                    ],
                );
            }
        }
        actions
    }

    /// Number of armed third-party defences.
    pub fn pending_count(&self) -> usize {
        self.state.pending_count()
    }

    /// Earliest pending defence expiry, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.state.next_deadline()
    }

    /// The pure protocol state (for instrumentation and the checker).
    pub fn state(&self) -> &ClashState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(site: u32, seq: u64) -> SessionId {
        SessionId { site, seq }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn phase1_long_standing_defends() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(1);
        let action = r.on_clash(
            t(1000),
            Addr(7),
            sid(1, 1),
            Incumbent::Ours {
                announced_at: t(0),
                wins_tiebreak: true,
            },
            &mut rng,
        );
        assert_eq!(action, ClashAction::DefendOwn { session: sid(1, 1) });
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn phase2_recent_announcer_yields() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(2);
        let action = r.on_clash(
            t(105),
            Addr(7),
            sid(1, 1),
            Incumbent::Ours {
                announced_at: t(100),
                wins_tiebreak: true,
            },
            &mut rng,
        );
        assert_eq!(
            action,
            ClashAction::ModifyOwn {
                session: sid(1, 1),
                old_addr: Addr(7)
            }
        );
    }

    #[test]
    fn phase2_window_boundary() {
        let policy = ClashPolicy {
            recent_window: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut r = ClashResponder::new(policy);
        let mut rng = SimRng::new(3);
        // Exactly at the window edge: still "recent".
        let a = r.on_clash(
            t(110),
            Addr(1),
            sid(2, 1),
            Incumbent::Ours {
                announced_at: t(100),
                wins_tiebreak: true,
            },
            &mut rng,
        );
        assert!(matches!(a, ClashAction::ModifyOwn { .. }));
        // Just past it: defends.
        let b = r.on_clash(
            t(111),
            Addr(1),
            sid(2, 1),
            Incumbent::Ours {
                announced_at: t(100),
                wins_tiebreak: true,
            },
            &mut rng,
        );
        assert!(matches!(b, ClashAction::DefendOwn { .. }));
    }

    #[test]
    fn phase3_arms_timer_within_window() {
        let policy = ClashPolicy::default();
        let d1 = policy.d1;
        let d2 = policy.d2;
        let mut r = ClashResponder::new(policy);
        let mut rng = SimRng::new(4);
        let action = r.on_clash(t(50), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        match action {
            ClashAction::ThirdPartyArmed { session, fire_at } => {
                assert_eq!(session, sid(3, 2));
                assert!(fire_at >= t(50) + d1);
                assert!(fire_at <= t(50) + d2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.pending_count(), 1);
    }

    #[test]
    fn phase3_fires_after_deadline() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(5);
        r.on_clash(t(0), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        let deadline = r.next_deadline().unwrap();
        assert!(r.poll(deadline - SimDuration::from_nanos(1)).is_empty());
        let fired = r.poll(deadline);
        assert_eq!(
            fired,
            vec![ClashAction::DefendThirdParty { session: sid(3, 2) }]
        );
        assert_eq!(r.pending_count(), 0);
        // Idempotent.
        assert!(r.poll(deadline + SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn phase3_suppressed_by_originator() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(6);
        r.on_clash(t(0), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        r.on_announcement_seen(sid(3, 2));
        assert_eq!(r.pending_count(), 0);
        assert!(r.poll(t(100)).is_empty());
    }

    #[test]
    fn phase3_suppressed_by_resolution() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(7);
        r.on_clash(t(0), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        // The new session moved to a different address.
        r.on_clash_resolved(Addr(9));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn multiple_pending_fire_independently() {
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(8);
        r.on_clash(t(0), Addr(1), sid(1, 1), Incumbent::Cached, &mut rng);
        r.on_clash(t(0), Addr(2), sid(2, 1), Incumbent::Cached, &mut rng);
        r.on_clash(t(0), Addr(3), sid(3, 1), Incumbent::Cached, &mut rng);
        assert_eq!(r.pending_count(), 3);
        r.on_announcement_seen(sid(2, 1));
        assert_eq!(r.pending_count(), 2);
        let fired = r.poll(t(100));
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn duplicate_clash_does_not_double_arm() {
        // A duplicated clash announcement must re-report the existing
        // timer, not arm a second defence (two timers would mean two
        // authoritative third-party responses for one clash).
        let mut r = ClashResponder::new(ClashPolicy::default());
        let mut rng = SimRng::new(21);
        let a = r.on_clash(t(0), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        let b = r.on_clash(t(1), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        assert_eq!(r.pending_count(), 1);
        let (fa, fb) = match (a, b) {
            (
                ClashAction::ThirdPartyArmed { fire_at: fa, .. },
                ClashAction::ThirdPartyArmed { fire_at: fb, .. },
            ) => (fa, fb),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(fa, fb, "re-arm must keep the original timer");
        let fired = r.poll(t(100));
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn step_is_pure() {
        let policy = ClashPolicy::default();
        let state = ClashState::new();
        let ev = ClashEvent::Clash {
            now: t(5),
            addr: Addr(1),
            incumbent_session: sid(1, 1),
            incumbent: Incumbent::Cached,
            third_party_delay: SimDuration::from_secs(2),
        };
        let (s1, a1) = clash_step(&policy, &state, &ev);
        let (s2, a2) = clash_step(&policy, &state, &ev);
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
        assert_eq!(state.pending_count(), 0, "input state untouched");
        assert_eq!(s1.next_deadline(), Some(t(7)));
    }

    #[test]
    fn poll_fires_in_deadline_order() {
        let policy = ClashPolicy::default();
        let mut state = ClashState::new();
        for (secs, site) in [(9u64, 1u32), (3, 2), (6, 3)] {
            let (next, _) = clash_step(
                &policy,
                &state,
                &ClashEvent::Clash {
                    now: t(0),
                    addr: Addr(site),
                    incumbent_session: sid(site, 1),
                    incumbent: Incumbent::Cached,
                    third_party_delay: SimDuration::from_secs(secs),
                },
            );
            state = next;
        }
        let (_, fired) = clash_step(&policy, &state, &ClashEvent::Poll { now: t(100) });
        let order: Vec<u32> = fired
            .iter()
            .map(|a| match a {
                ClashAction::DefendThirdParty { session } => session.site,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn responder_telemetry_counts_decisions() {
        let mut r = ClashResponder::with_telemetry(ClashPolicy::default(), Telemetry::new(3, 99));
        let mut rng = SimRng::new(22);
        r.on_clash(
            t(1000),
            Addr(7),
            sid(1, 1),
            Incumbent::Ours {
                announced_at: t(0),
                wins_tiebreak: true,
            },
            &mut rng,
        );
        r.on_clash(t(1000), Addr(8), sid(2, 1), Incumbent::Cached, &mut rng);
        // Duplicate clash: re-reports the timer, must not double count.
        r.on_clash(t(1001), Addr(8), sid(2, 1), Incumbent::Cached, &mut rng);
        let fired = r.poll(t(2000));
        assert_eq!(fired.len(), 1);
        let m = &r.telemetry().metrics;
        assert_eq!(m.counter_by_name("clash.defend_own"), 1);
        assert_eq!(m.counter_by_name("clash.third_party_armed"), 1);
        assert_eq!(m.counter_by_name("clash.third_party_fired"), 1);
        let snap = r.telemetry().snapshot_json();
        assert!(snap.contains("clash.defence_delay_ms"), "{snap}");
        assert!(r.telemetry().recorder().len() >= 3, "trace events recorded");
    }

    #[test]
    fn responder_telemetry_survives_swap() {
        // set_telemetry re-registers idempotently: counts accumulated
        // before a restart keep counting after.
        let mut r = ClashResponder::with_telemetry(ClashPolicy::default(), Telemetry::new(0, 1));
        let mut rng = SimRng::new(23);
        r.on_clash(t(0), Addr(9), sid(3, 2), Incumbent::Cached, &mut rng);
        let carried = r.take_telemetry();
        let mut r2 = ClashResponder::new(ClashPolicy::default());
        r2.set_telemetry(carried);
        r2.on_clash(t(5), Addr(4), sid(4, 1), Incumbent::Cached, &mut rng);
        assert_eq!(
            r2.telemetry()
                .metrics
                .counter_by_name("clash.third_party_armed"),
            2
        );
    }

    #[test]
    fn exponential_delays_are_suppression_friendly() {
        // Among 1000 third parties arming for the same clash, the
        // earliest deadline should precede the great majority: most
        // responders choose late slots (the suppression property).
        let policy = ClashPolicy::default();
        let mut rng = SimRng::new(9);
        let mut deadlines: Vec<SimTime> = Vec::new();
        for i in 0..1000 {
            let mut r = ClashResponder::new(policy.clone());
            r.on_clash(t(0), Addr(9), sid(i, 1), Incumbent::Cached, &mut rng);
            deadlines.push(r.next_deadline().unwrap());
        }
        let min = *deadlines.iter().min().unwrap();
        // Count how many fall within one RTT of the earliest.
        let near = deadlines
            .iter()
            .filter(|&&d| d.saturating_since(min) <= policy.rtt)
            .count();
        assert!(
            near < 100,
            "{near} responders within one RTT of the earliest"
        );
    }
}
