//! Simulation of the multicast request–response protocol
//! (Section 3; Figures 15, 16, 18, 19).
//!
//! One node multicasts a *request*; every other group member schedules a
//! *response* after a random delay and cancels it if it hears someone
//! else's response first.  The simulation measures two things the
//! analytic bucket model cannot capture — real topology-dependent
//! round-trip times and natural suppression within a "bucket":
//!
//! * the number of responses actually sent, and
//! * the delay until the requester receives the first response.
//!
//! Configurations match the paper's: Doar-style topologies, delivery
//! over source-based shortest-path trees or a shared tree, link delay
//! proportional to distance with optional per-hop random queueing
//! jitter, and uniform or exponential response-delay distributions.

use sdalloc_sim::suppression::{exponential_delay, uniform_delay};
use sdalloc_sim::{SimDuration, SimRng};
use sdalloc_telemetry::{CounterId, HistogramId, Severity, Telemetry, NO_ARG};
use sdalloc_topology::routing::{SharedTree, SourceTree};
use sdalloc_topology::{NodeId, Topology};

use crate::responder::{responder_step, ResponderState, RrEvent, RrOutput};

/// How responses (and the request) are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMode {
    /// Source-based shortest-path trees (DVMRP / dense-mode PIM).
    SourceTrees,
    /// A single core-based shared tree (CBT / sparse-mode PIM).
    SharedTree,
}

/// Response-delay distribution over `[d1, d2]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayDist {
    /// Uniform over the window (Figures 14–16).
    Uniform,
    /// Exponentially weighted toward the end of the window (Figure 18).
    Exponential,
    /// Ranked (Section 3.1: "we can arbitrarily rank the sites using any
    /// additional information that we have"): member `r` of `n` delays
    /// `d1 + (r + u)·(d2−d1)/n` with `u ~ U[0,1)`, so the lowest-ranked
    /// live member responds almost alone and almost immediately.
    Ranked,
}

/// Who is allowed to respond, and when (Section 3.1's first lever:
/// "initially only allowing the sites that are actually announcing
/// sessions to respond … Sites that are not session announcers can
/// always be allowed to respond later by setting their D1 value to the
/// value of D2 of the announcing sites").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Population {
    /// Every member responds in `[d1, d2]`.
    All,
    /// The given fraction of members are announcers responding in
    /// `[d1, d2]`; everyone else waits in `[d2, 2·d2 − d1]`.
    AnnouncersFirst {
        /// Fraction of members that are session announcers.
        fraction: f64,
    },
}

/// Parameters of one request–response run.
#[derive(Debug, Clone)]
pub struct RrParams {
    /// Routing mode.
    pub tree: TreeMode,
    /// Response-delay distribution.
    pub dist: DelayDist,
    /// Earliest response delay (D1).
    pub d1: SimDuration,
    /// Latest response delay (D2).
    pub d2: SimDuration,
    /// RTT scale: the exponential distribution's bucket width.
    pub rtt: SimDuration,
    /// Per-hop uniform queueing jitter bound; `None` for
    /// delay = distance exactly.
    pub jitter_per_hop: Option<SimDuration>,
    /// Responder population policy.
    pub population: Population,
}

impl RrParams {
    /// The paper's base configuration (Figure 15 A): source trees,
    /// uniform delay, delay ≈ distance, 200 ms RTT scale.
    pub fn figure15a(d2: SimDuration) -> RrParams {
        RrParams {
            tree: TreeMode::SourceTrees,
            dist: DelayDist::Uniform,
            d1: SimDuration::ZERO,
            d2,
            rtt: SimDuration::from_millis(200),
            jitter_per_hop: None,
            population: Population::All,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrOutcome {
    /// Number of responses actually transmitted.
    pub responses: usize,
    /// Delay from the request until the first response reaches the
    /// requester; `None` if nobody responded (empty group).
    pub first_response: Option<SimDuration>,
}

/// One observable event in a request–response exchange, in the order the
/// suppression sweep processes it.  The trace is the protocol's complete
/// deterministic history: two implementations are equivalent iff they
/// produce identical traces for identical seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `node` transmitted its response at `at` (since the request).
    ResponseSent {
        /// Responding member.
        node: u32,
        /// Send instant.
        at: SimDuration,
    },
    /// `node` cancelled its scheduled response: another response reached
    /// it at `heard_at`, strictly before its own `scheduled_at`.
    Suppressed {
        /// Suppressed member.
        node: u32,
        /// When it would have sent.
        scheduled_at: SimDuration,
        /// When the suppressing response arrived.
        heard_at: SimDuration,
    },
    /// A transmitted response reached the requester at `at`.
    ResponseAtRequester {
        /// The responder it came from.
        from: u32,
        /// Arrival instant.
        at: SimDuration,
    },
}

/// A full event trace of one exchange.
pub type RrTrace = Vec<TraceEvent>;

/// FNV-1a hash of a trace's canonical byte encoding — a compact
/// fingerprint for regression tests ("byte-identical traces").
pub fn trace_fingerprint(trace: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ev in trace {
        match *ev {
            TraceEvent::ResponseSent { node, at } => {
                eat(1);
                eat(u64::from(node));
                eat(at.as_nanos());
            }
            TraceEvent::Suppressed {
                node,
                scheduled_at,
                heard_at,
            } => {
                eat(2);
                eat(u64::from(node));
                eat(scheduled_at.as_nanos());
                eat(heard_at.as_nanos());
            }
            TraceEvent::ResponseAtRequester { from, at } => {
                eat(3);
                eat(u64::from(from));
                eat(at.as_nanos());
            }
        }
    }
    h
}

/// Pre-registered metric ids for the request–response driver.
#[derive(Debug, Clone, Copy)]
struct RrMetrics {
    requests: CounterId,
    responses_sent: CounterId,
    suppressed: CounterId,
    at_requester: CounterId,
    first_response_ms: HistogramId,
}

impl RrMetrics {
    /// Bucket bounds for the first-response latency histogram, ms.
    const FIRST_BOUNDS_MS: [u64; 6] = [50, 100, 250, 500, 1_000, 5_000];

    fn register(t: &mut Telemetry) -> RrMetrics {
        RrMetrics {
            requests: t.counter("rr.requests"),
            responses_sent: t.counter("rr.responses_sent"),
            suppressed: t.counter("rr.suppressed"),
            at_requester: t.counter("rr.responses_at_requester"),
            first_response_ms: t.histogram("rr.first_response_ms", &Self::FIRST_BOUNDS_MS),
        }
    }
}

/// A reusable harness over one topology: caches the shared tree.
pub struct RrSim<'a> {
    topo: &'a Topology,
    shared: Option<SharedTree>,
    /// Suppression-decision telemetry.  Pure bookkeeping on the driver
    /// side: recording never draws from the run's RNG, so the golden
    /// trace fingerprints are unaffected.
    telemetry: Telemetry,
    metrics: RrMetrics,
}

impl<'a> RrSim<'a> {
    /// Wrap a topology.
    pub fn new(topo: &'a Topology) -> Self {
        let mut telemetry = Telemetry::new(0, 0);
        let metrics = RrMetrics::register(&mut telemetry);
        RrSim {
            topo,
            shared: None,
            telemetry,
            metrics,
        }
    }

    /// The harness's telemetry bundle (suppression decisions, response
    /// counts, first-response latency histogram).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access, e.g. to stamp an identity or adjust the filter.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn recording on or off.
    pub fn set_telemetry_enabled(&mut self, on: bool) {
        self.telemetry.set_enabled(on);
    }

    fn shared_tree(&mut self) -> &SharedTree {
        self.shared
            .get_or_insert_with(|| SharedTree::with_central_core(self.topo))
    }

    /// Run one request–response exchange from `requester`, with all
    /// other nodes as group members.
    pub fn run_once(
        &mut self,
        params: &RrParams,
        requester: NodeId,
        rng: &mut SimRng,
    ) -> RrOutcome {
        self.run_once_impl(params, requester, rng, None)
    }

    /// Like [`Self::run_once`], additionally recording the full event
    /// trace (sends, suppressions, arrivals at the requester) in
    /// processing order.
    pub fn run_once_traced(
        &mut self,
        params: &RrParams,
        requester: NodeId,
        rng: &mut SimRng,
    ) -> (RrOutcome, RrTrace) {
        let mut trace = Vec::new();
        let outcome = self.run_once_impl(params, requester, rng, Some(&mut trace));
        (outcome, trace)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "i indexes parallel n-element arrays built in this fn"
    )]
    fn run_once_impl(
        &mut self,
        params: &RrParams,
        requester: NodeId,
        rng: &mut SimRng,
        mut trace: Option<&mut RrTrace>,
    ) -> RrOutcome {
        let n = self.topo.node_count();
        assert!(requester.index() < n, "requester out of range");
        self.telemetry.inc(self.metrics.requests);

        // -- request delivery: arrival time of the request at each node.
        let (arrival, _hops) = self.delays_from(params, requester, rng);

        // -- each member picks a response-send time.
        #[derive(Clone, Copy)]
        struct Candidate {
            node: NodeId,
            send_at: SimDuration,
        }
        let mut candidates: Vec<Candidate> = Vec::with_capacity(n - 1);
        let member_count = (n - 1) as u64;
        let mut rank = 0u64;
        #[allow(clippy::needless_range_loop, reason = "i indexes two parallel arrays")]
        for i in 0..n {
            if i == requester.index() {
                continue;
            }
            let my_rank = rank;
            rank += 1;
            let Some(a) = arrival[i] else { continue };
            let window = (params.d1, params.d2);
            // Non-announcers wait out the announcers' whole window first.
            let (d1, d2) = match params.population {
                Population::All => window,
                Population::AnnouncersFirst { fraction } => {
                    if rng.chance(fraction) {
                        window
                    } else {
                        (window.1, window.1 + (window.1 - window.0))
                    }
                }
            };
            let d = match params.dist {
                DelayDist::Uniform => uniform_delay(rng, d1, d2),
                DelayDist::Exponential => exponential_delay(rng, d1, d2, params.rtt),
                DelayDist::Ranked => {
                    // Deterministic slot by rank, fuzzed within the slot.
                    let span = (d2 - d1).as_nanos() as f64;
                    let u = rng.f64();
                    let frac = (my_rank as f64 + u) / member_count.max(1) as f64;
                    d1 + sdalloc_sim::SimDuration::from_nanos((span * frac) as u64)
                }
            };
            candidates.push(Candidate {
                node: NodeId(i as u32),
                send_at: a + d,
            });
        }
        // Earliest first; ties broken by node id for determinism.
        candidates.sort_by_key(|c| (c.send_at, c.node.0));

        // -- suppression sweep: every member runs the pure responder
        // machine ([`responder_step`]); this driver merely orders the
        // events.  Each member is fed its `Request` (scheduling the
        // send), then deadlines fire in send order; every transmission
        // immediately delivers `HearResponse` events to the later
        // candidates its response reaches.
        let mut machines: Vec<ResponderState> = vec![ResponderState::Idle; n];
        for c in &candidates {
            let (s, _) = responder_step(
                machines[c.node.index()],
                RrEvent::Request { send_at: c.send_at },
            );
            machines[c.node.index()] = s;
        }
        let mut responses = 0usize;
        let mut first_at_requester: Option<SimDuration> = None;

        for idx in 0..candidates.len() {
            let c = candidates[idx];
            let (next, outputs) = responder_step(machines[c.node.index()], RrEvent::Deadline);
            machines[c.node.index()] = next;
            if let ResponderState::Suppressed {
                scheduled_at,
                heard_at,
            } = next
            {
                self.telemetry.inc(self.metrics.suppressed);
                self.telemetry.record(
                    scheduled_at.as_nanos(),
                    Severity::Debug,
                    "rr",
                    "suppressed",
                    [
                        ("node", u64::from(c.node.0)),
                        ("heard_ns", heard_at.as_nanos()),
                        NO_ARG,
                    ],
                );
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(TraceEvent::Suppressed {
                        node: c.node.0,
                        scheduled_at,
                        heard_at,
                    });
                }
                continue; // heard someone else in time
            }
            for out in outputs {
                let RrOutput::SendResponse { at: sent_at } = out;
                responses += 1;
                self.telemetry.inc(self.metrics.responses_sent);
                self.telemetry.record(
                    sent_at.as_nanos(),
                    Severity::Debug,
                    "rr",
                    "response_sent",
                    [("node", u64::from(c.node.0)), NO_ARG, NO_ARG],
                );
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(TraceEvent::ResponseSent {
                        node: c.node.0,
                        at: sent_at,
                    });
                }
                let (resp_delay, resp_hops) = self.delays_from(params, c.node, rng);
                // Arrival at the requester.
                if let Some(d) = resp_delay[requester.index()] {
                    let at = sent_at + d;
                    self.telemetry.inc(self.metrics.at_requester);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.push(TraceEvent::ResponseAtRequester { from: c.node.0, at });
                    }
                    first_at_requester = Some(match first_at_requester {
                        None => at,
                        Some(prev) => prev.min(at),
                    });
                }
                // Deliver to the later candidates.
                for later in &candidates[idx + 1..] {
                    let j = later.node.index();
                    if let Some(d) = resp_delay[j] {
                        let (s, _) =
                            responder_step(machines[j], RrEvent::HearResponse { at: sent_at + d });
                        machines[j] = s;
                    }
                }
                let _ = resp_hops; // hop counts reserved for stats
            }
        }

        if let Some(first) = first_at_requester {
            self.telemetry
                .observe(self.metrics.first_response_ms, first.as_nanos() / 1_000_000);
        }

        RrOutcome {
            responses,
            first_response: first_at_requester,
        }
    }

    /// One-to-all delivery delays from `src` under the params' routing
    /// mode, with optional per-hop jitter resampled per packet.
    /// Returns `(delay per node, hops per node)`; `None` = unreachable.
    #[expect(
        clippy::indexing_slicing,
        reason = "every array is sized to node_count, i ranges below n, and src is a node of the same topology"
    )]
    fn delays_from(
        &mut self,
        params: &RrParams,
        src: NodeId,
        rng: &mut SimRng,
    ) -> (Vec<Option<SimDuration>>, Vec<u32>) {
        let n = self.topo.node_count();
        let mut delays: Vec<Option<SimDuration>> = vec![None; n];
        let mut hops: Vec<u32> = vec![0; n];
        match params.tree {
            TreeMode::SourceTrees => {
                let tree = SourceTree::compute(self.topo, src);
                for i in 0..n {
                    if tree.metric[i] != u32::MAX {
                        delays[i] = Some(tree.delay[i]);
                        hops[i] = tree.hops[i];
                    }
                }
            }
            TreeMode::SharedTree => {
                let shared = self.shared_tree().clone();
                for i in 0..n {
                    let v = NodeId(i as u32);
                    if let Some(d) = shared.path_delay(src, v) {
                        delays[i] = Some(d);
                        hops[i] = shared.path_hops(src, v).unwrap_or(0);
                    }
                }
            }
        }
        if let Some(j) = params.jitter_per_hop {
            if !j.is_zero() {
                for i in 0..n {
                    if let Some(d) = delays[i] {
                        let mut extra = SimDuration::ZERO;
                        for _ in 0..hops[i] {
                            extra += SimDuration::from_nanos(rng.below(j.as_nanos().max(1)));
                        }
                        delays[i] = Some(d + extra);
                    }
                }
            }
        }
        delays[src.index()] = Some(SimDuration::ZERO);
        (delays, hops)
    }
}

/// Aggregates over repeated runs: the numbers plotted in Figures 15/16/19.
#[derive(Debug, Clone, Copy)]
pub struct RrAggregate {
    /// Mean number of responses.
    pub mean_responses: f64,
    /// Mean first-response delay in seconds (over runs where anyone
    /// responded).
    pub mean_first_response_secs: f64,
    /// Maximum first-response delay seen.
    pub max_first_response_secs: f64,
}

/// Run `repeats` request–response exchanges from random requesters and
/// aggregate.
pub fn run_many(
    topo: &Topology,
    params: &RrParams,
    repeats: usize,
    rng: &mut SimRng,
) -> RrAggregate {
    let mut sim = RrSim::new(topo);
    let mut responses = 0.0;
    let mut first_sum = 0.0;
    let mut first_max: f64 = 0.0;
    let mut first_count = 0usize;
    for _ in 0..repeats {
        let requester = NodeId(rng.below(topo.node_count() as u64) as u32);
        let out = sim.run_once(params, requester, rng);
        responses += out.responses as f64;
        if let Some(f) = out.first_response {
            let secs = f.as_secs_f64();
            first_sum += secs;
            first_max = first_max.max(secs);
            first_count += 1;
        }
    }
    RrAggregate {
        mean_responses: responses / repeats.max(1) as f64,
        mean_first_response_secs: if first_count > 0 {
            first_sum / first_count as f64
        } else {
            0.0
        },
        max_first_response_secs: first_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_topology::doar::{generate, DoarParams};

    fn s(x: f64) -> SimDuration {
        SimDuration::from_secs_f64(x)
    }

    fn topo(n: usize, seed: u64) -> Topology {
        generate(&DoarParams::new(n, seed))
    }

    #[test]
    fn everyone_responds_with_zero_window() {
        // D1 = D2 = 0: all members send before any response can arrive.
        let t = topo(50, 1);
        let mut sim = RrSim::new(&t);
        let params = RrParams {
            tree: TreeMode::SourceTrees,
            dist: DelayDist::Uniform,
            d1: SimDuration::ZERO,
            d2: SimDuration::ZERO,
            rtt: SimDuration::from_millis(200),
            jitter_per_hop: None,
            population: Population::All,
        };
        let mut rng = SimRng::new(2);
        let out = sim.run_once(&params, NodeId(0), &mut rng);
        assert_eq!(out.responses, 49);
        assert!(out.first_response.is_some());
    }

    #[test]
    fn huge_window_suppresses_to_few() {
        let t = topo(300, 3);
        let mut sim = RrSim::new(&t);
        let params = RrParams::figure15a(s(60.0));
        let mut rng = SimRng::new(4);
        let out = sim.run_once(&params, NodeId(0), &mut rng);
        assert!(
            out.responses < 20,
            "window ≫ network delays should suppress most: {}",
            out.responses
        );
        assert!(out.responses >= 1);
    }

    #[test]
    fn more_suppression_with_longer_window() {
        let t = topo(400, 5);
        let mut rng = SimRng::new(6);
        let short = run_many(&t, &RrParams::figure15a(s(0.2)), 10, &mut rng);
        let long = run_many(&t, &RrParams::figure15a(s(20.0)), 10, &mut rng);
        assert!(
            long.mean_responses < short.mean_responses,
            "short {} long {}",
            short.mean_responses,
            long.mean_responses
        );
        // And the first response takes correspondingly longer.
        assert!(long.mean_first_response_secs > short.mean_first_response_secs);
    }

    #[test]
    fn exponential_beats_uniform_at_large_groups() {
        // The Figure 19 claim: for a window that gives the uniform scheme
        // trouble at this group size, the exponential scheme responds
        // with only a couple of messages.
        let t = topo(800, 7);
        let mut rng = SimRng::new(8);
        let window = s(3.2);
        let mut uni = RrParams::figure15a(window);
        uni.dist = DelayDist::Uniform;
        let mut exp = RrParams::figure15a(window);
        exp.dist = DelayDist::Exponential;
        let u = run_many(&t, &uni, 8, &mut rng);
        let e = run_many(&t, &exp, 8, &mut rng);
        assert!(
            e.mean_responses < u.mean_responses,
            "uniform {} exponential {}",
            u.mean_responses,
            e.mean_responses
        );
        assert!(e.mean_responses < 8.0, "exponential {}", e.mean_responses);
    }

    #[test]
    fn shared_tree_mode_works() {
        let t = topo(200, 9);
        let mut sim = RrSim::new(&t);
        let params = RrParams {
            tree: TreeMode::SharedTree,
            dist: DelayDist::Uniform,
            d1: SimDuration::ZERO,
            d2: s(5.0),
            rtt: SimDuration::from_millis(200),
            jitter_per_hop: None,
            population: Population::All,
        };
        let mut rng = SimRng::new(10);
        let out = sim.run_once(&params, NodeId(17), &mut rng);
        assert!(out.responses >= 1);
        assert!(out.first_response.is_some());
    }

    #[test]
    fn jitter_changes_outcomes_but_not_sanity() {
        let t = topo(200, 11);
        let mut params = RrParams::figure15a(s(2.0));
        params.jitter_per_hop = Some(SimDuration::from_millis(20));
        let mut rng = SimRng::new(12);
        let agg = run_many(&t, &params, 5, &mut rng);
        assert!(agg.mean_responses >= 1.0);
        assert!(agg.mean_first_response_secs > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = topo(150, 13);
        let params = RrParams::figure15a(s(1.0));
        let mut r1 = SimRng::new(14);
        let mut r2 = SimRng::new(14);
        let a = run_many(&t, &params, 5, &mut r1);
        let b = run_many(&t, &params, 5, &mut r2);
        assert_eq!(a.mean_responses, b.mean_responses);
        assert_eq!(a.mean_first_response_secs, b.mean_first_response_secs);
    }

    #[test]
    fn ranked_delays_beat_uniform() {
        // Section 3.1's ranking lever: a total order on sites thins the
        // early slots far below a uniform draw.  (Request-arrival skew
        // and return-path delay keep it above exactly one response.)
        let t = topo(500, 17);
        let mut rng = SimRng::new(18);
        let window = s(2.0);
        let mut uniform = RrParams::figure15a(window);
        uniform.dist = DelayDist::Uniform;
        let mut ranked = RrParams::figure15a(window);
        ranked.dist = DelayDist::Ranked;
        let u = run_many(&t, &uniform, 5, &mut rng);
        let r = run_many(&t, &ranked, 5, &mut rng);
        assert!(
            r.mean_responses < u.mean_responses,
            "uniform {} vs ranked {}",
            u.mean_responses,
            r.mean_responses
        );
        assert!(
            r.mean_responses < 12.0,
            "ranked too chatty: {}",
            r.mean_responses
        );
    }

    #[test]
    fn ranked_first_response_is_fast() {
        // The best-ranked member's slot is (d2-d1)/n wide, so the first
        // response lands long before the window ends.
        let t = topo(400, 19);
        let mut sim = RrSim::new(&t);
        let mut params = RrParams::figure15a(s(10.0));
        params.dist = DelayDist::Ranked;
        let mut rng = SimRng::new(20);
        let out = sim.run_once(&params, NodeId(3), &mut rng);
        let first = out.first_response.unwrap().as_secs_f64();
        assert!(first < 2.0, "first ranked response at {first}s");
    }

    #[test]
    fn announcers_first_reduces_effective_population() {
        // With 5% announcers, the expected response count should match a
        // population of ~n/20, clearly below the full-population run at
        // the same window.
        let t = topo(600, 21);
        let mut rng = SimRng::new(22);
        let window = s(1.6);
        let mut all = RrParams::figure15a(window);
        all.population = Population::All;
        let mut tiered = RrParams::figure15a(window);
        tiered.population = Population::AnnouncersFirst { fraction: 0.05 };
        let a = run_many(&t, &all, 8, &mut rng);
        let b = run_many(&t, &tiered, 8, &mut rng);
        assert!(
            b.mean_responses < a.mean_responses,
            "all {} vs tiered {}",
            a.mean_responses,
            b.mean_responses
        );
    }

    #[test]
    fn announcers_first_zero_fraction_still_responds() {
        // Degenerate tier: nobody is an announcer, everyone defers —
        // responses still happen, just later.
        let t = topo(100, 23);
        let mut sim = RrSim::new(&t);
        let mut params = RrParams::figure15a(s(1.0));
        params.population = Population::AnnouncersFirst { fraction: 0.0 };
        let mut rng = SimRng::new(24);
        let out = sim.run_once(&params, NodeId(0), &mut rng);
        assert!(out.responses >= 1);
        assert!(out.first_response.unwrap() >= s(1.0));
    }

    #[test]
    fn first_response_includes_return_path() {
        // With a single other node at delay δ and D=0 the first response
        // arrives at 2δ (request out, response back).
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        t.add_link(a, b, 1, 1, SimDuration::from_millis(30));
        let mut sim = RrSim::new(&t);
        let params = RrParams {
            tree: TreeMode::SourceTrees,
            dist: DelayDist::Uniform,
            d1: SimDuration::ZERO,
            d2: SimDuration::ZERO,
            rtt: SimDuration::from_millis(200),
            jitter_per_hop: None,
            population: Population::All,
        };
        let mut rng = SimRng::new(15);
        let out = sim.run_once(&params, a, &mut rng);
        assert_eq!(out.responses, 1);
        assert_eq!(out.first_response, Some(SimDuration::from_millis(60)));
    }

    #[test]
    fn refactor_traces_match_pre_refactor_golden() {
        // Regression anchor for the pure `responder_step` refactor: the
        // fingerprints below were captured from the pre-refactor inline
        // suppression sweep (direct `suppressed_at` bookkeeping) under
        // these three fixed seeds.  The state-machine-driven sweep must
        // reproduce the event traces byte for byte.
        let golden = [
            (
                31u64,
                101u64,
                5usize,
                Some(110_550_349u64),
                124usize,
                0x53a6_0713_9f7d_252d_u64,
            ),
            (32, 202, 3, Some(26_137_807), 122, 0x14f8_228f_564e_c2b3),
            (33, 303, 6, Some(65_073_247), 125, 0xab32_7272_51c4_d91f),
        ];
        for (topo_seed, rng_seed, responses, first_ns, trace_len, fp) in golden {
            let t = topo(120, topo_seed);
            let mut sim = RrSim::new(&t);
            let params = RrParams::figure15a(s(1.5));
            let mut rng = SimRng::new(rng_seed);
            let (out, trace) = sim.run_once_traced(&params, NodeId(3), &mut rng);
            assert_eq!(out.responses, responses, "seed ({topo_seed},{rng_seed})");
            assert_eq!(
                out.first_response.map(SimDuration::as_nanos),
                first_ns,
                "seed ({topo_seed},{rng_seed})"
            );
            assert_eq!(trace.len(), trace_len, "seed ({topo_seed},{rng_seed})");
            assert_eq!(
                trace_fingerprint(&trace),
                fp,
                "seed ({topo_seed},{rng_seed}): trace diverged from pre-refactor history"
            );
        }
    }

    #[test]
    fn telemetry_counts_match_outcome() {
        let t = topo(150, 41);
        let params = RrParams::figure15a(s(2.0));
        let mut sim = RrSim::new(&t);
        sim.telemetry_mut().set_identity(0, 7);
        let mut rng = SimRng::new(7);
        let out = sim.run_once(&params, NodeId(5), &mut rng);
        let m = &sim.telemetry().metrics;
        assert_eq!(m.counter_by_name("rr.requests"), 1);
        assert_eq!(m.counter_by_name("rr.responses_sent"), out.responses as u64);
        // Every member either responded or was suppressed.
        assert_eq!(
            m.counter_by_name("rr.responses_sent") + m.counter_by_name("rr.suppressed"),
            (t.node_count() - 1) as u64
        );
        let snap = sim.telemetry().snapshot_json();
        assert!(snap.contains("\"rr.first_response_ms\""), "{snap}");
        // Telemetry is pure bookkeeping: a telemetry-off run consumes
        // the RNG identically and yields the same outcome.
        let mut quiet = RrSim::new(&t);
        quiet.set_telemetry_enabled(false);
        let mut rng2 = SimRng::new(7);
        let out2 = quiet.run_once(&params, NodeId(5), &mut rng2);
        assert_eq!(out, out2);
        assert_eq!(quiet.telemetry().metrics.counter_by_name("rr.requests"), 0);
    }

    #[test]
    fn untraced_and_traced_agree() {
        let t = topo(150, 41);
        let params = RrParams::figure15a(s(2.0));
        let mut sim1 = RrSim::new(&t);
        let mut sim2 = RrSim::new(&t);
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let a = sim1.run_once(&params, NodeId(5), &mut r1);
        let (b, trace) = sim2.run_once_traced(&params, NodeId(5), &mut r2);
        assert_eq!(a, b);
        let sent = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::ResponseSent { .. }))
            .count();
        assert_eq!(sent, a.responses);
    }
}
