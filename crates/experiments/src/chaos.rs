//! Chaos experiments: deterministic fault injection over the real
//! directory/allocator stack, measuring graceful degradation.
//!
//! Each scenario builds a seeded [`FaultPlan`], drives the SAP
//! [`Testbed`] (the real `SessionDirectory` protocol code — poll,
//! on_packet, three-phase clash recovery) through it, and reports
//! robustness metrics:
//!
//! * **partition_heal** — two sides of a healed partition hold the same
//!   address; how long is the duplicate-address exposure window after
//!   the heal, and does the scope reconverge?
//! * **crash_restart** — a node loses its announcement cache; how long
//!   until the periodic re-announcements rebuild it, relative to the
//!   announcement period?
//! * **burst_loss** — a timed 90%-loss window on top of the default 2%
//!   channel; does the exponential back-off still converge the scope?
//! * **storm** — a forged-announcement flood plus bit-flip corruption;
//!   do real sessions still propagate and can nodes still allocate?
//! * **exhaustion** — a full allocator band, with and without the
//!   [`sdalloc_core::Allocator::allocate_or_widen`] fallback; the
//!   strict path must reproduce failures the graceful path survives.
//!
//! Everything is seeded: the same seed yields a byte-identical report,
//! which is what makes a fault reproducible enough to debug.
//!
//! One scenario lives outside the deterministic matrix:
//! **runtime_soak** ([`runtime_soak`]) re-runs the crash/restart story
//! against the *threaded* production runtime — real agent threads on
//! the loopback bus, reader threads on the snapshot path —
//! so its report is wall-clock timed and is written as a separate
//! sidecar (`runtime_soak*.json`), never folded into the byte-stable
//! matrix report.

use sdalloc_core::{AddrSpace, InformedRandomAllocator, StaticIpr};
use sdalloc_sap::directory::{
    DirectoryConfig, DirectoryEvent, GovernorConfig, ReconcileConfig, SessionDirectory,
};
use sdalloc_sap::sdp::Media;
use sdalloc_sap::testbed::Testbed;
use sdalloc_sim::{Channel, CorruptionMode, FaultPlan, SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// How many repeats of each scenario to run.
fn runs(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        10
    }
}

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

fn configs(n: usize, space: u32) -> Vec<DirectoryConfig> {
    (0..n)
        .map(|i| {
            let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
            cfg.space = AddrSpace::abstract_space(space);
            cfg
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Outcome of the partition-heal scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionHeal {
    /// Scenario repeats.
    pub runs: usize,
    /// Runs where a same-address duplicate could be forced at all.
    pub duplicated: usize,
    /// Runs ending with the two sessions on distinct groups.
    pub reconverged: usize,
    /// Seconds from heal until the losing session moved, per resolved
    /// run (0 when a third party resolved it before the heal).
    pub exposure_s: Vec<f64>,
    /// Total session moves across all runs.
    pub moves: usize,
    /// Total third-party defences armed across all runs.
    pub defences: usize,
}

/// One partition-heal instance: isolate node 1 (node 2 sits on node
/// 0's side, so no third party can resolve the clash early), force the
/// two sides onto the same address, and run to the horizon.  `heal_at:
/// None` leaves the partition up past the horizon — the reconvergence
/// property then fails *by construction*, which is what the
/// flight-recorder dump path is exercised against.  Returns `None`
/// when no duplicate could be forced.
fn heal_instance(seed: u64, k: u64, heal_at: Option<SimTime>) -> Option<Testbed> {
    let heal = heal_at.unwrap_or(SimTime::from_secs(1_000_000));
    let mut tb = Testbed::new(
        configs(3, 2),
        || Box::new(InformedRandomAllocator),
        Channel::mbone_default(),
        seed ^ k << 16,
    )
    .with_faults(FaultPlan::new().with_partition(SimTime::ZERO, heal, vec![0, 2], vec![1]));
    let mut rng0 = SimRng::new(seed ^ (k << 8));
    let mut rng1 = SimRng::new(seed ^ (k << 8) ^ 1);
    // Force the partitioned sides onto the same address (space of 2:
    // a few tries always suffice).
    let mut forced = false;
    for _ in 0..64 {
        let now = tb.now();
        let (Ok(id0), Ok(id1)) = (
            tb.directory_mut(0)
                .create_session(now, "a", 127, media(), &mut rng0),
            tb.directory_mut(1)
                .create_session(now, "b", 127, media(), &mut rng1),
        ) else {
            break;
        };
        let g0 = tb
            .directory(0)
            .own_sessions()
            .next()
            .map(|(_, s)| s.desc.group);
        let g1 = tb
            .directory(1)
            .own_sessions()
            .next()
            .map(|(_, s)| s.desc.group);
        if g0.is_some() && g0 == g1 {
            forced = true;
            break;
        }
        tb.directory_mut(0).withdraw_session(id0);
        tb.directory_mut(1).withdraw_session(id1);
    }
    if !forced {
        return None;
    }
    tb.kick(0);
    tb.kick(1);
    tb.run_until(SimTime::from_secs(1_340));
    Some(tb)
}

/// The group each node's (single) own session currently sits on.
fn own_group(tb: &Testbed, node: usize) -> Option<std::net::Ipv4Addr> {
    tb.directory(node)
        .own_sessions()
        .next()
        .map(|(_, s)| s.desc.group)
}

/// Partition → duplicate allocation → heal → measure the duplicate
/// exposure window and reconvergence, all under a [`FaultPlan`]
/// partition window rather than hand-driven blocking.
pub fn partition_heal(seed: u64, smoke: bool) -> PartitionHeal {
    let runs = runs(smoke);
    let heal_at = SimTime::from_secs(40);
    let mut out = PartitionHeal {
        runs,
        duplicated: 0,
        reconverged: 0,
        exposure_s: Vec::new(),
        moves: 0,
        defences: 0,
    };
    for k in 0..runs {
        let Some(tb) = heal_instance(seed, k as u64, Some(heal_at)) else {
            continue;
        };
        out.duplicated += 1;
        let g0 = tb
            .directory(0)
            .own_sessions()
            .next()
            .map(|(_, s)| s.desc.group);
        let g1 = tb
            .directory(1)
            .own_sessions()
            .next()
            .map(|(_, s)| s.desc.group);
        if g0.is_some() && g1.is_some() && g0 != g1 {
            out.reconverged += 1;
            if let Some(m) = tb
                .log
                .iter()
                .find(|e| matches!(e.event, DirectoryEvent::Moved { .. }))
            {
                out.exposure_s
                    .push(m.at.saturating_since(heal_at).as_secs_f64());
            }
        }
        out.moves += tb
            .log
            .iter()
            .filter(|e| matches!(e.event, DirectoryEvent::Moved { .. }))
            .count();
        out.defences += tb
            .log
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    DirectoryEvent::Clash {
                        action: sdalloc_core::ClashAction::ThirdPartyArmed { .. },
                        ..
                    }
                )
            })
            .count();
    }
    out
}

/// Outcome of the crash-restart scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRestart {
    /// Scenario repeats.
    pub runs: usize,
    /// Runs where the restarted node re-heard the survivor's session.
    pub rebuilt: usize,
    /// Seconds from restart to the first re-heard announcement.
    pub rebuild_s: Vec<f64>,
    /// The background announcement period the rebuild time is bounded
    /// by (the schedule cap), in seconds.
    pub announce_cap_s: f64,
}

/// Crash a node mid-run, restart it with an empty cache, and measure
/// how long the surviving announcer takes to repopulate it.
pub fn crash_restart(seed: u64, smoke: bool) -> CrashRestart {
    let runs = runs(smoke);
    // Shorten the announcement period so rebuild times are measured
    // against a few periods, not the paper's 10-minute background rate.
    let cap = SimDuration::from_secs(30);
    let crash_at = SimTime::from_secs(60);
    let restart_at = SimTime::from_secs(90);
    let mut out = CrashRestart {
        runs,
        rebuilt: 0,
        rebuild_s: Vec::new(),
        announce_cap_s: cap.as_secs_f64(),
    };
    for k in 0..runs {
        let mut cfgs = configs(2, 256);
        for cfg in &mut cfgs {
            cfg.schedule.cap = cap;
        }
        let mut tb = Testbed::new(
            cfgs,
            || Box::new(InformedRandomAllocator),
            Channel::mbone_default(),
            seed ^ (k as u64) << 17,
        )
        .with_faults(FaultPlan::new().with_crash(1, crash_at, Some(restart_at)));
        let mut rng = SimRng::new(seed ^ ((k as u64) << 9));
        let now = tb.now();
        if tb
            .directory_mut(0)
            .create_session(now, "survivor", 127, media(), &mut rng)
            .is_err()
        {
            continue;
        }
        tb.kick(0);
        tb.run_until(SimTime::from_secs(240));
        if let Some(e) = tb.log.iter().find(|e| {
            e.node == 1 && e.at >= restart_at && matches!(e.event, DirectoryEvent::Heard(_))
        }) {
            out.rebuilt += 1;
            out.rebuild_s
                .push(e.at.saturating_since(restart_at).as_secs_f64());
        }
    }
    out
}

/// Outcome of the crash-restart scenario with digest reconciliation,
/// against the plain announce-cycle baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRestartRecon {
    /// Scenario repeats (per mode).
    pub runs: usize,
    /// Sessions the survivor holds — the restarted cache must re-learn
    /// every one of them, not just the first.
    pub sessions: usize,
    /// Baseline runs that fully rebuilt before the horizon.
    pub baseline_rebuilt: usize,
    /// Seconds from restart until the *last* session was re-heard,
    /// baseline (announce cycle only).
    pub baseline_full_rebuild_s: Vec<f64>,
    /// Reconciliation runs that fully rebuilt before the horizon.
    pub recon_rebuilt: usize,
    /// Seconds from restart until the last session was re-heard with
    /// the digest exchange enabled.
    pub recon_full_rebuild_s: Vec<f64>,
}

impl CrashRestartRecon {
    /// Exposure-window reduction: baseline mean over recon mean.
    pub fn speedup(&self) -> f64 {
        let r = mean(&self.recon_full_rebuild_s);
        if r <= 0.0 {
            0.0
        } else {
            mean(&self.baseline_full_rebuild_s) / r
        }
    }
}

/// One crash/restart instance: the survivor owns `sessions` sessions,
/// node 1 crashes and restarts, and the run measures seconds from
/// restart until node 1 has re-heard all of them (`None`: never did).
fn crash_restart_recon_instance(seed: u64, k: u64, recon: bool, sessions: usize) -> Option<f64> {
    let cap = SimDuration::from_secs(30);
    let crash_at = SimTime::from_secs(60);
    // Restart just *after* a periodic announce instant (the cap-30
    // schedule fires at 95 s), so the announce-cycle baseline pays a
    // representative near-full period, not a lucky phase alignment.
    let restart_at = SimTime::from_secs(96);
    let mut cfgs = configs(2, 256);
    for cfg in &mut cfgs {
        cfg.schedule.cap = cap;
        if recon {
            cfg.reconcile = Some(ReconcileConfig::default());
        }
    }
    let mut tb = Testbed::new(
        cfgs,
        || Box::new(InformedRandomAllocator),
        Channel::mbone_default(),
        seed ^ (k << 20),
    )
    .with_faults(FaultPlan::new().with_crash(1, crash_at, Some(restart_at)));
    let mut rng = SimRng::new(seed ^ (k << 12));
    let now = tb.now();
    for _ in 0..sessions {
        tb.directory_mut(0)
            .create_session(now, "survivor", 127, media(), &mut rng)
            .ok()?;
    }
    tb.kick(0);
    tb.kick(1);
    tb.run_until(SimTime::from_secs(240));
    // Full rebuild = the moment the n-th distinct session lands back in
    // the restarted cache (every re-learned entry logs Heard(New)).
    let mut new_heard = 0;
    for e in tb.log.iter().filter(|e| {
        e.node == 1
            && e.at >= restart_at
            && matches!(
                e.event,
                DirectoryEvent::Heard(sdalloc_sap::cache::CacheUpdate::New)
            )
    }) {
        new_heard += 1;
        if new_heard == sessions {
            return Some(e.at.saturating_since(restart_at).as_secs_f64());
        }
    }
    None
}

/// Crash/restart with the anti-entropy digest exchange, head-to-head
/// against the announce-cycle baseline: same seeds, same fault plan,
/// same survivor sessions — only `DirectoryConfig::reconcile` differs.
pub fn crash_restart_recon(seed: u64, smoke: bool) -> CrashRestartRecon {
    let runs = runs(smoke);
    let sessions = 6;
    let mut out = CrashRestartRecon {
        runs,
        sessions,
        baseline_rebuilt: 0,
        baseline_full_rebuild_s: Vec::new(),
        recon_rebuilt: 0,
        recon_full_rebuild_s: Vec::new(),
    };
    for k in 0..runs as u64 {
        if let Some(s) = crash_restart_recon_instance(seed, k, false, sessions) {
            out.baseline_rebuilt += 1;
            out.baseline_full_rebuild_s.push(s);
        }
        if let Some(s) = crash_restart_recon_instance(seed, k, true, sessions) {
            out.recon_rebuilt += 1;
            out.recon_full_rebuild_s.push(s);
        }
    }
    out
}

/// Outcome of the storm-under-governor scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct StormQuota {
    /// Scenario repeats.
    pub runs: usize,
    /// Forged announcements injected per run.
    pub packets: u32,
    /// The governor's hard cache budget.
    pub budget: usize,
    /// Largest listener cache observed at the horizon across runs.
    pub max_cached: usize,
    /// Runs where the legitimate (verified) session was still cached at
    /// the horizon — must equal `runs` for zero legitimate evictions.
    pub legit_retained: usize,
    /// Unverified-tier evictions across all runs (forged entries
    /// displacing each other at the budget).
    pub evicted_unverified: u64,
    /// Newcomers refused because every incumbent was legitimate.
    pub rejected_budget: u64,
}

/// The PR-3 storm, replayed against a governed cache: the forged flood
/// must neither grow the cache past the budget nor evict the real
/// session.
pub fn storm_quota(seed: u64, smoke: bool) -> StormQuota {
    let runs = runs(smoke);
    let packets = if smoke { 50 } else { 200 };
    let budget = 32;
    let mut out = StormQuota {
        runs,
        packets,
        budget,
        max_cached: 0,
        legit_retained: 0,
        evicted_unverified: 0,
        rejected_budget: 0,
    };
    for k in 0..runs {
        let mut cfgs = configs(2, 256);
        for cfg in &mut cfgs {
            cfg.governor = Some(GovernorConfig {
                max_entries: budget,
                per_source_quota: 4,
                ..GovernorConfig::default()
            });
        }
        let mut tb = Testbed::new(
            cfgs,
            || Box::new(InformedRandomAllocator),
            Channel::mbone_default(),
            seed ^ (k as u64) << 21,
        )
        // The storm opens at t=20: the legitimate session has announced
        // at 0, 5 and 15 by then, so the listener holds it verified.
        .with_faults(FaultPlan::new().with_storm(SimTime::from_secs(20), packets));
        let mut rng = SimRng::new(seed ^ ((k as u64) << 13));
        let now = tb.now();
        if tb
            .directory_mut(0)
            .create_session(now, "real", 127, media(), &mut rng)
            .is_err()
        {
            continue;
        }
        let Some((_, s)) = tb.directory(0).own_sessions().next() else {
            continue;
        };
        let (legit_origin, legit_sid) = (s.desc.origin.address, s.desc.origin.session_id);
        tb.kick(0);
        tb.run_until(SimTime::from_secs(120));
        let listener = tb.directory(1);
        out.max_cached = out.max_cached.max(listener.cached_sessions());
        if listener.cache().get(legit_origin, legit_sid).is_some() {
            out.legit_retained += 1;
        }
        let m = &listener.telemetry().metrics;
        out.evicted_unverified += m.counter_by_name("governor.evicted_unverified");
        out.rejected_budget += m.counter_by_name("governor.rejected_budget");
    }
    out
}

/// Outcome of the burst-loss scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstLoss {
    /// Scenario repeats.
    pub runs: usize,
    /// Runs where every listener eventually cached the session.
    pub converged: usize,
    /// Seconds from session creation to full convergence.
    pub converge_s: Vec<f64>,
}

/// A 90% burst-loss window on top of the 2% base channel: the
/// exponential back-off's repeats must push the announcement through
/// once the burst clears.
pub fn burst_loss(seed: u64, smoke: bool) -> BurstLoss {
    let runs = runs(smoke);
    let mut out = BurstLoss {
        runs,
        converged: 0,
        converge_s: Vec::new(),
    };
    for k in 0..runs {
        let mut tb = Testbed::new(
            configs(3, 256),
            || Box::new(InformedRandomAllocator),
            Channel::mbone_default(),
            seed ^ (k as u64) << 18,
        )
        // The window opens at t=0 so even the initial announcement and
        // the early fast-phase repeats face the burst.
        .with_faults(FaultPlan::new().with_burst_loss(
            SimTime::ZERO,
            SimTime::from_secs(120),
            0.9,
        ));
        let mut rng = SimRng::new(seed ^ ((k as u64) << 10));
        let now = tb.now();
        if tb
            .directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .is_err()
        {
            continue;
        }
        tb.kick(0);
        tb.run_until(SimTime::from_secs(900));
        if tb.directory(1).cached_sessions() == 1 && tb.directory(2).cached_sessions() == 1 {
            out.converged += 1;
            let last_first_heard = (1..3)
                .filter_map(|n| {
                    tb.log
                        .iter()
                        .find(|e| e.node == n && matches!(e.event, DirectoryEvent::Heard(_)))
                        .map(|e| e.at.as_secs_f64())
                })
                .fold(0.0, f64::max);
            out.converge_s.push(last_first_heard);
        }
    }
    out
}

/// Outcome of the storm scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Storm {
    /// Scenario repeats.
    pub runs: usize,
    /// Runs where the real session still propagated through the storm.
    pub real_heard: usize,
    /// Runs where a node could still allocate a fresh session after it.
    pub still_allocates: usize,
    /// Forged entries cached at the listener, per run.
    pub forged_cached: Vec<f64>,
}

/// A forged-announcement flood plus a bit-flip corruption window: the
/// cache takes the junk, but real traffic and allocation must survive.
pub fn storm(seed: u64, smoke: bool) -> Storm {
    let runs = runs(smoke);
    let packets = if smoke { 50 } else { 200 };
    let mut out = Storm {
        runs,
        real_heard: 0,
        still_allocates: 0,
        forged_cached: Vec::new(),
    };
    for k in 0..runs {
        let mut tb = Testbed::new(
            configs(2, 256),
            || Box::new(InformedRandomAllocator),
            Channel::mbone_default(),
            seed ^ (k as u64) << 19,
        )
        .with_faults(
            FaultPlan::new()
                .with_storm(SimTime::from_secs(5), packets)
                .with_corruption(
                    SimTime::from_secs(4),
                    SimTime::from_secs(30),
                    0.3,
                    CorruptionMode::BitFlip,
                ),
        );
        let mut rng = SimRng::new(seed ^ ((k as u64) << 11));
        let now = tb.now();
        if tb
            .directory_mut(0)
            .create_session(now, "real", 127, media(), &mut rng)
            .is_err()
        {
            continue;
        }
        tb.kick(0);
        tb.run_until(SimTime::from_secs(120));
        if tb
            .log
            .iter()
            .any(|e| e.node == 1 && matches!(e.event, DirectoryEvent::Heard(_)))
        {
            out.real_heard += 1;
        }
        // The forged entries are everything cached beyond the real one.
        let cached = tb.directory(1).cached_sessions();
        out.forged_cached.push(cached.saturating_sub(1) as f64);
        let now = tb.now();
        let mut rng1 = SimRng::new(seed ^ ((k as u64) << 11) ^ 1);
        if tb
            .directory_mut(1)
            .create_session(now, "after-storm", 127, media(), &mut rng1)
            .is_ok()
        {
            out.still_allocates += 1;
        }
    }
    out
}

/// Outcome of the exhaustion scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Exhaustion {
    /// Creates attempted per mode.
    pub attempts: usize,
    /// Failed creates with the fallback disabled (must be > 0: this is
    /// the failure the graceful path exists to absorb).
    pub strict_failures: usize,
    /// Failed creates with the fallback enabled (should be 0).
    pub graceful_failures: usize,
    /// Degraded (out-of-partition) allocations logged by the graceful
    /// path.
    pub degraded_events: usize,
}

/// Exhaust a static-IPR band and create sessions with the exhaustion
/// fallback disabled, then enabled: the strict run must reproduce at
/// least one failed create that the graceful run survives (logging
/// [`DirectoryEvent::Degraded`] instead).
pub fn exhaustion(seed: u64) -> Exhaustion {
    let attempts = 5;
    let run = |fallback: bool, seed: u64| -> (usize, usize) {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(12);
        cfg.exhaustion_fallback = fallback;
        let mut d = SessionDirectory::new(cfg, Box::new(StaticIpr::three_band()));
        let mut rng = SimRng::new(seed);
        let mut failures = 0;
        for k in 0..attempts {
            // TTL 15 keeps every create inside one 4-address band.
            if d.create_session(SimTime::from_secs(k as u64), "s", 15, media(), &mut rng)
                .is_err()
            {
                failures += 1;
            }
        }
        let degraded = d
            .take_events()
            .iter()
            .filter(|e| matches!(e, DirectoryEvent::Degraded { .. }))
            .count();
        (failures, degraded)
    };
    let (strict_failures, _) = run(false, seed);
    let (graceful_failures, degraded_events) = run(true, seed);
    Exhaustion {
        attempts,
        strict_failures,
        graceful_failures,
        degraded_events,
    }
}

/// Run the full scenario matrix and render the deterministic JSON
/// report: fixed field order, fixed float precision, no wall-clock
/// anywhere — the same seed produces a byte-identical report.
pub fn run(seed: u64, smoke: bool) -> String {
    let ph = partition_heal(seed, smoke);
    let cr = crash_restart(seed, smoke);
    let crr = crash_restart_recon(seed, smoke);
    let bl = burst_loss(seed, smoke);
    let st = storm(seed, smoke);
    let sq = storm_quota(seed, smoke);
    let ex = exhaustion(seed);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str("  \"partition_heal\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", ph.runs));
    s.push_str(&format!("    \"duplicated\": {},\n", ph.duplicated));
    s.push_str(&format!("    \"reconverged\": {},\n", ph.reconverged));
    s.push_str(&format!(
        "    \"mean_exposure_s\": {:.3},\n",
        mean(&ph.exposure_s)
    ));
    s.push_str(&format!(
        "    \"max_exposure_s\": {:.3},\n",
        max(&ph.exposure_s)
    ));
    s.push_str(&format!("    \"moves\": {},\n", ph.moves));
    s.push_str(&format!("    \"defences\": {}\n", ph.defences));
    s.push_str("  },\n");
    s.push_str("  \"crash_restart\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", cr.runs));
    s.push_str(&format!("    \"rebuilt\": {},\n", cr.rebuilt));
    s.push_str(&format!(
        "    \"mean_rebuild_s\": {:.3},\n",
        mean(&cr.rebuild_s)
    ));
    s.push_str(&format!(
        "    \"max_rebuild_s\": {:.3},\n",
        max(&cr.rebuild_s)
    ));
    s.push_str(&format!(
        "    \"announce_cap_s\": {:.3}\n",
        cr.announce_cap_s
    ));
    s.push_str("  },\n");
    s.push_str("  \"crash_restart_recon\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", crr.runs));
    s.push_str(&format!("    \"sessions\": {},\n", crr.sessions));
    s.push_str(&format!(
        "    \"baseline_rebuilt\": {},\n",
        crr.baseline_rebuilt
    ));
    s.push_str(&format!(
        "    \"mean_baseline_full_rebuild_s\": {:.3},\n",
        mean(&crr.baseline_full_rebuild_s)
    ));
    s.push_str(&format!("    \"recon_rebuilt\": {},\n", crr.recon_rebuilt));
    s.push_str(&format!(
        "    \"mean_recon_full_rebuild_s\": {:.3},\n",
        mean(&crr.recon_full_rebuild_s)
    ));
    s.push_str(&format!("    \"speedup\": {:.3}\n", crr.speedup()));
    s.push_str("  },\n");
    s.push_str("  \"burst_loss\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", bl.runs));
    s.push_str(&format!("    \"converged\": {},\n", bl.converged));
    s.push_str(&format!(
        "    \"mean_converge_s\": {:.3},\n",
        mean(&bl.converge_s)
    ));
    s.push_str(&format!(
        "    \"max_converge_s\": {:.3}\n",
        max(&bl.converge_s)
    ));
    s.push_str("  },\n");
    s.push_str("  \"storm\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", st.runs));
    s.push_str(&format!("    \"real_heard\": {},\n", st.real_heard));
    s.push_str(&format!(
        "    \"still_allocates\": {},\n",
        st.still_allocates
    ));
    s.push_str(&format!(
        "    \"mean_forged_cached\": {:.3}\n",
        mean(&st.forged_cached)
    ));
    s.push_str("  },\n");
    s.push_str("  \"storm_quota\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", sq.runs));
    s.push_str(&format!("    \"packets\": {},\n", sq.packets));
    s.push_str(&format!("    \"budget\": {},\n", sq.budget));
    s.push_str(&format!("    \"max_cached\": {},\n", sq.max_cached));
    s.push_str(&format!("    \"legit_retained\": {},\n", sq.legit_retained));
    s.push_str(&format!(
        "    \"evicted_unverified\": {},\n",
        sq.evicted_unverified
    ));
    s.push_str(&format!(
        "    \"rejected_budget\": {}\n",
        sq.rejected_budget
    ));
    s.push_str("  },\n");
    s.push_str("  \"exhaustion\": {\n");
    s.push_str(&format!("    \"attempts\": {},\n", ex.attempts));
    s.push_str(&format!(
        "    \"strict_failures\": {},\n",
        ex.strict_failures
    ));
    s.push_str(&format!(
        "    \"graceful_failures\": {},\n",
        ex.graceful_failures
    ));
    s.push_str(&format!(
        "    \"degraded_events\": {}\n",
        ex.degraded_events
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

/// Everything [`run`] produces plus the telemetry sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// The scenario-matrix report (exactly [`run`]'s output).
    pub report: String,
    /// Per-node telemetry snapshots from a representative instrumented
    /// partition-heal instance (a JSON array, one object per node);
    /// `None` when no duplicate could be forced at this seed.
    pub telemetry_json: Option<String>,
    /// Flight-recorder dumps, one `(label, json)` per node, captured
    /// from the forced-failure instance (a partition that never heals,
    /// so the reconvergence property is violated at the horizon).
    pub dumps: Vec<(String, String)>,
}

/// [`run`] plus telemetry capture and the forced-failure post-mortem.
///
/// The report string is byte-identical to [`run`]'s (the instrumented
/// companion runs use their own testbeds and RNG streams), so existing
/// consumers of `chaos.json` see no change.
pub fn run_full(seed: u64, smoke: bool) -> ChaosRun {
    let report = run(seed, smoke);
    // Representative instrumented run: the per-node metric snapshots of
    // a healed partition instance (telemetry is on by default in the
    // testbed, so this is the same protocol execution the matrix saw).
    let telemetry_json = heal_instance(seed, 0, Some(SimTime::from_secs(40))).map(|tb| {
        debug_assert_ne!(own_group(&tb, 0), own_group(&tb, 1));
        tb.telemetry_json()
    });
    // Forced property violation: the partition never heals, so the two
    // sides still hold the same group at the horizon.  That violated
    // invariant is the flight recorder's trigger: dump every node's
    // ring for the post-mortem.
    let mut dumps = Vec::new();
    if let Some(tb) = heal_instance(seed, 0, None) {
        if own_group(&tb, 0) == own_group(&tb, 1) {
            let reason = "chaos: partition never healed; duplicate address survived to horizon";
            for (i, d) in tb.flight_dump(reason).into_iter().enumerate() {
                dumps.push((format!("partition_no_heal_node{i}"), d));
            }
        }
    }
    ChaosRun {
        report,
        telemetry_json,
        dumps,
    }
}

/// The threaded-runtime counterpart of [`crash_restart`]: agent
/// *threads* on the loopback bus, one of which crashes and restarts
/// mid-run while reader threads hammer the snapshot path.  Where the
/// simulator scenarios prove the protocol recovers, this one proves the
/// *runtime* does: no reader ever stalls on the crashed writer nor the
/// writer on a reader (each holds the cell for one pointer swap or one
/// refcount increment), no reader ever observes a torn or recycled row,
/// and the restarted node's snapshot exposure window closes — the
/// runtime-level mirror of [`crash_restart_recon`]'s reconciliation
/// rebuild numbers.
///
/// Wall-clock timed by nature (real threads), so unlike the matrix its
/// numbers vary run to run; the *invariants* (stalls, integrity,
/// recovery) must not.
pub fn runtime_soak(seed: u64, smoke: bool) -> sdalloc_runtime::SoakReport {
    let cfg = if smoke {
        sdalloc_runtime::SoakConfig::smoke(seed)
    } else {
        sdalloc_runtime::SoakConfig::full(seed)
    };
    sdalloc_runtime::run_soak(&cfg)
}

/// Render a [`sdalloc_runtime::SoakReport`] as the `runtime_soak`
/// sidecar JSON.
pub fn render_runtime_soak(seed: u64, smoke: bool, r: &sdalloc_runtime::SoakReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"runtime_soak\": {\n");
    s.push_str(&format!("    \"seed\": {seed},\n"));
    s.push_str(&format!(
        "    \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("    \"agents\": {},\n", r.agents));
    s.push_str(&format!("    \"readers\": {},\n", r.readers));
    s.push_str(&format!(
        "    \"elapsed_s\": {:.3},\n",
        r.elapsed.as_secs_f64()
    ));
    s.push_str(&format!("    \"crash_node\": {},\n", r.crash_node));
    s.push_str(&format!("    \"pre_crash_rows\": {},\n", r.pre_crash_rows));
    s.push_str(&format!("    \"post_cached\": {},\n", r.post_cached));
    s.push_str(&format!("    \"recovered\": {},\n", r.recovered));
    s.push_str(&format!(
        "    \"exposure_ms\": {},\n",
        r.exposure_ms
            .map_or("null".to_string(), |ms| format!("{ms:.1}"))
    ));
    s.push_str(&format!(
        "    \"reader_queries\": [{}],\n",
        r.reader_queries
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "    \"stalled_readers\": {},\n",
        r.stalled_readers
    ));
    s.push_str(&format!(
        "    \"integrity_failures\": {},\n",
        r.integrity_failures
    ));
    s.push_str(&format!(
        "    \"snapshots_published\": {},\n",
        r.snapshots_published
    ));
    s.push_str(&format!("    \"bus_delivered\": {},\n", r.bus.delivered));
    s.push_str(&format!(
        "    \"bus_dropped\": {}\n",
        r.bus.dropped_loss + r.bus.dropped_down + r.bus.dropped_corrupt
    ));
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic() {
        // The acceptance bar: same seed, same plan, byte-identical JSON.
        let a = run(1998, true);
        let b = run(1998, true);
        assert_eq!(a, b);
    }

    #[test]
    fn forced_failure_produces_flight_dumps() {
        let out = run_full(1998, true);
        assert_eq!(out.dumps.len(), 3, "one dump per node");
        for (label, d) in &out.dumps {
            assert!(d.contains("\"flight_recorder\": true"), "{label}: {d}");
            assert!(d.contains("partition never healed"), "{label}");
        }
        // The clashing announcers' rings retain their allocate spans.
        assert!(out.dumps[0].1.contains("\"span\": \"allocate\""));
        // The representative healed run produced per-node telemetry.
        let t = out.telemetry_json.as_deref().unwrap_or("");
        assert!(t.contains("\"announce.sent\""), "{t}");
        assert!(t.contains("\"node\": 2"), "all three nodes present: {t}");
    }

    #[test]
    fn run_full_is_deterministic() {
        let a = run_full(7, true);
        let b = run_full(7, true);
        assert_eq!(a, b);
    }

    #[test]
    fn exhaustion_strict_fails_where_graceful_survives() {
        let ex = exhaustion(1998);
        assert!(ex.strict_failures > 0, "strict path must reproduce failure");
        assert_eq!(ex.graceful_failures, 0, "graceful path must survive");
        assert!(ex.degraded_events > 0, "degradation must be logged");
    }

    #[test]
    fn partition_heal_reconverges_with_bounded_exposure() {
        let ph = partition_heal(1998, true);
        assert!(ph.duplicated > 0, "scenario must force duplicates");
        assert_eq!(ph.reconverged, ph.duplicated, "all duplicates resolve");
        assert!(
            ph.exposure_s.iter().all(|&s| s > 0.0 && s < 1_300.0),
            "exposure starts at the heal and ends before the horizon: {:?}",
            ph.exposure_s
        );
    }

    #[test]
    fn crash_restart_recon_closes_the_exposure_window() {
        let crr = crash_restart_recon(1998, true);
        assert_eq!(crr.baseline_rebuilt, crr.runs, "baseline must rebuild");
        assert_eq!(crr.recon_rebuilt, crr.runs, "recon must rebuild");
        assert!(
            crr.speedup() >= 5.0,
            "reconciliation must shrink the window ≥5×: baseline {:?}, recon {:?}",
            crr.baseline_full_rebuild_s,
            crr.recon_full_rebuild_s
        );
    }

    #[test]
    fn storm_quota_bounds_cache_and_keeps_legit_sessions() {
        let sq = storm_quota(1998, true);
        assert!(
            sq.max_cached <= sq.budget,
            "cache grew past the budget: {} > {}",
            sq.max_cached,
            sq.budget
        );
        assert_eq!(
            sq.legit_retained, sq.runs,
            "a legitimate session was evicted under storm pressure"
        );
        assert!(
            sq.evicted_unverified > 0,
            "the forged flood must have cycled through the unverified tier"
        );
    }

    #[test]
    fn crash_restart_rebuilds_within_a_few_periods() {
        let cr = crash_restart(1998, true);
        assert_eq!(cr.rebuilt, cr.runs, "every restart must rebuild");
        assert!(
            cr.rebuild_s.iter().all(|&s| s <= 5.0 * cr.announce_cap_s),
            "rebuild within a few announcement periods: {:?}",
            cr.rebuild_s
        );
    }
}
