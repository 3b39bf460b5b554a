//! Wall-clock chaos soak: agent threads under a crash plan while reader
//! threads hammer the snapshot path.
//!
//! The scenario: `agents` directory agents on a [`LoopbackBus`], each
//! announcing its own sessions on an accelerated schedule with PR-8
//! anti-entropy reconciliation enabled.  Partway through, one agent
//! crashes (driver-emulated: it stops pumping, its queued traffic is
//! discarded) and later restarts with an empty cache.  Throughout,
//! `readers` query threads continuously load snapshots and run the
//! zero-alloc query set, verifying every row checksum.
//!
//! The report answers the questions the chaos gate asks:
//! * did any reader stall while the writer crashed/recovered? (neither
//!   side waits on the other for longer than one pointer swap or one
//!   refcount increment; a reader holding yesterday's snapshot delays
//!   its reclamation, never the next publish or another reader);
//! * did any reader ever observe a torn or recycled row? (a snapshot
//!   lives as long as anyone holds it);
//! * how long was the crashed node's *exposure window* — restart until
//!   its snapshot again carried the pre-crash session set — which is the
//!   runtime-level mirror of the PR-8 reconciliation rebuild numbers.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdalloc_core::{AddrSpace, InformedRandomAllocator};
use sdalloc_sap::{BackoffSchedule, DirectoryConfig, Media, ReconcileConfig};
use sdalloc_sim::{FaultPlan, SimDuration, SimTime};

use crate::bus::{BusStats, LoopbackBus};
use crate::clock::{Clock, WallClock};
use crate::driver::{AgentDriver, DriverConfig, Runtime};

/// Soak scenario knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Agent threads (the last one is the crash victim).
    pub agents: usize,
    /// Reader threads, spread round-robin over the agents' snapshots.
    pub readers: usize,
    /// Total wall-clock run time.
    pub duration: Duration,
    /// Sessions each agent creates before the run.
    pub sessions_per_agent: usize,
    /// Seed for every RNG in the scenario.
    pub seed: u64,
    /// Crash instant, as a fraction of `duration`.
    pub crash_frac: f64,
    /// Restart instant, as a fraction of `duration`.
    pub restart_frac: f64,
}

impl SoakConfig {
    /// CI-sized: seconds, small fleet.
    pub fn smoke(seed: u64) -> SoakConfig {
        SoakConfig {
            agents: 3,
            readers: 2,
            duration: Duration::from_millis(2_500),
            sessions_per_agent: 4,
            seed,
            crash_frac: 0.3,
            restart_frac: 0.5,
        }
    }

    /// The full soak: wall-clock minutes, a bigger fleet.
    pub fn full(seed: u64) -> SoakConfig {
        SoakConfig {
            agents: 4,
            readers: 4,
            duration: Duration::from_secs(120),
            sessions_per_agent: 16,
            seed,
            crash_frac: 0.3,
            restart_frac: 0.5,
        }
    }
}

/// What the soak observed.
#[derive(Debug)]
pub struct SoakReport {
    /// Agents / readers that ran.
    pub agents: usize,
    /// Reader thread count.
    pub readers: usize,
    /// Wall-clock run time actually spent.
    pub elapsed: Duration,
    /// The crash victim's node index.
    pub crash_node: usize,
    /// Rows in the victim's snapshot just before the crash.
    pub pre_crash_rows: usize,
    /// Sessions the victim had cached at shutdown.
    pub post_cached: usize,
    /// Victim's cache recovered to its pre-crash size.
    pub recovered: bool,
    /// Restart → recovery, milliseconds (None = not recovered in time).
    pub exposure_ms: Option<f64>,
    /// Queries each reader completed.
    pub reader_queries: Vec<u64>,
    /// Readers that ever went a full second without completing a query.
    pub stalled_readers: usize,
    /// Torn/recycled rows any reader ever observed (must be 0).
    pub integrity_failures: u64,
    /// Snapshots published across all agents.
    pub snapshots_published: u64,
    /// Bus-level delivery counters.
    pub bus: BusStats,
    /// The victim's flight-recorder dump, captured when a reader stalled.
    pub flight_dump: Option<String>,
}

/// Accelerated protocol timings so crash → re-announce → reconcile all
/// fit inside a CI-sized soak window.
fn soak_directory_config(node: usize) -> DirectoryConfig {
    let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + node as u8));
    cfg.space = AddrSpace::abstract_space(1024);
    cfg.schedule = BackoffSchedule {
        initial: SimDuration::from_millis(100),
        factor: 2,
        cap: SimDuration::from_millis(400),
    };
    cfg.reconcile = Some(ReconcileConfig {
        digest_interval: SimDuration::from_millis(500),
        rebuild_interval: SimDuration::from_millis(100),
        min_digest_gap: SimDuration::from_millis(50),
        min_request_gap: SimDuration::from_millis(50),
        max_reannounce_per_request: 64,
    });
    cfg
}

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

/// How long a reader may go without completing one query before it
/// counts as stalled.  Generous because CI may pin everything to one
/// core; a genuinely stalled reader (blocked on a dead writer) would
/// stay stalled for the rest of the run, not for one scheduling gap.
const STALL_AFTER: Duration = Duration::from_secs(1);

/// Run the scenario.  Spends `cfg.duration` of wall-clock time.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let crash_node = cfg.agents - 1;
    let crash_at = SimTime::from_secs_f64(cfg.duration.as_secs_f64() * cfg.crash_frac);
    let restart_at = SimTime::from_secs_f64(cfg.duration.as_secs_f64() * cfg.restart_frac);
    let plan = FaultPlan::new().with_crash(crash_node, crash_at, Some(restart_at));
    let bus = LoopbackBus::new(Arc::clone(&clock) as Arc<dyn Clock>, cfg.seed, plan.clone());
    let mut drivers = Vec::with_capacity(cfg.agents);
    for node in 0..cfg.agents {
        let mut driver = AgentDriver::new(
            node as u32,
            cfg.seed,
            soak_directory_config(node),
            Box::new(InformedRandomAllocator),
            bus.endpoint(),
            Arc::clone(&clock) as Arc<dyn Clock>,
            DriverConfig::default(),
        )
        .with_faults(plan.clone());
        for s in 0..cfg.sessions_per_agent {
            let _ = driver.create_session(&format!("soak-{node}-{s}"), 127, media());
        }
        driver.publish_now();
        drivers.push(driver);
    }
    let victim_snapshots = drivers[crash_node].snapshot_handle();
    let runtime = Runtime::spawn(drivers).expect("spawn agent threads");

    // Readers.
    let stop = Arc::new(AtomicBool::new(false));
    let integrity_failures = Arc::new(AtomicU64::new(0));
    let counters: Vec<Arc<AtomicU64>> = (0..cfg.readers)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let mut reader_threads = Vec::with_capacity(cfg.readers);
    for (r, counter) in counters.iter().enumerate() {
        let handle = runtime.snapshot_handle(r % cfg.agents);
        let stop = Arc::clone(&stop);
        let counter = Arc::clone(counter);
        let bad = Arc::clone(&integrity_failures);
        reader_threads.push(
            std::thread::Builder::new()
                .name(format!("sd-reader-{r}"))
                .spawn(move || {
                    let mut reader = handle.reader();
                    let probe = Ipv4Addr::new(224, 2, 0, 1);
                    while !stop.load(Ordering::Relaxed) {
                        let snap = reader.load();
                        let corrupt = snap.corrupt_rows();
                        if corrupt > 0 {
                            bad.fetch_add(corrupt as u64, Ordering::Relaxed);
                        }
                        let _ = snap.group_in_use(probe);
                        let _ = snap.matching("soak").count();
                        drop(snap);
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("spawn reader thread"),
        );
    }

    // Watchdog loop: stall detection + exposure-window measurement.
    let started = Instant::now();
    let mut last_counts = vec![0u64; cfg.readers];
    let mut last_progress = vec![started; cfg.readers];
    let mut ever_stalled = vec![false; cfg.readers];
    let mut victim_reader = victim_snapshots.reader();
    let mut pre_crash_rows = 0usize;
    let mut recovered_at: Option<SimTime> = None;
    while started.elapsed() < cfg.duration {
        std::thread::sleep(Duration::from_millis(50));
        let wall = Instant::now();
        for r in 0..cfg.readers {
            let n = counters[r].load(Ordering::Relaxed);
            if n != last_counts[r] {
                last_counts[r] = n;
                last_progress[r] = wall;
            } else if wall.duration_since(last_progress[r]) > STALL_AFTER {
                ever_stalled[r] = true;
            }
        }
        let now = clock.now();
        let rows = victim_reader.load().len();
        if now < crash_at {
            pre_crash_rows = rows;
        } else if now >= restart_at && recovered_at.is_none() && rows >= pre_crash_rows {
            recovered_at = Some(now);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in reader_threads {
        t.join().expect("reader thread");
    }
    let exits = runtime.shutdown();
    let stalled_readers = ever_stalled.iter().filter(|&&s| s).count();
    let exposure_ms = recovered_at
        .map(|at| at.saturating_since(restart_at).as_secs_f64() * 1e3)
        .filter(|_| pre_crash_rows > 0);
    SoakReport {
        agents: cfg.agents,
        readers: cfg.readers,
        elapsed: started.elapsed(),
        crash_node,
        pre_crash_rows,
        post_cached: exits[crash_node].cached_sessions,
        recovered: pre_crash_rows > 0 && exits[crash_node].cached_sessions >= pre_crash_rows,
        exposure_ms,
        reader_queries: counters.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        stalled_readers,
        integrity_failures: integrity_failures.load(Ordering::Relaxed),
        snapshots_published: exits.iter().map(|e| e.snapshot_stats.published).sum(),
        bus: bus.stats(),
        flight_dump: (stalled_readers > 0).then(|| exits[crash_node].flight_dump.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_recovers_and_never_stalls() {
        let report = run_soak(&SoakConfig::smoke(42));
        assert_eq!(report.integrity_failures, 0, "torn rows observed");
        assert_eq!(report.stalled_readers, 0, "a reader stalled: {report:?}");
        assert!(
            report.reader_queries.iter().all(|&q| q > 0),
            "every reader made progress: {report:?}"
        );
        assert!(report.pre_crash_rows > 0, "victim heard peers: {report:?}");
        assert!(report.recovered, "victim cache rebuilt: {report:?}");
        assert!(report.snapshots_published > 0);
    }
}
