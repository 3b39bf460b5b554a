//! Differential tests for the threaded runtime.
//!
//! 1. **Driver parity** — a single agent driven by the runtime's
//!    deterministic loopback drive ([`AgentDriver::run_deterministic_until`]
//!    over a [`VirtualClock`]) must produce a byte-identical packet
//!    trace *and* byte-identical directory telemetry to the
//!    discrete-event [`Testbed`] running the same seeded scenario.  Both
//!    sides implement the same wake-on-deadline discipline; any
//!    divergence means the production driver and the simulator disagree
//!    about the protocol, which would invalidate every simulated result.
//!
//! 2. **Snapshot integrity under churn** — many readers loading
//!    snapshots lock-free while the writer churns the cache through the
//!    slab arena (entries expiring and being recycled) and publishes at
//!    full rate must never observe a torn or recycled row (per-row FNV
//!    checksums), must see versions move monotonically, and must always
//!    see rows sorted.
//!
//! Traces are compared via the 64-bit FNV-1a fingerprint from
//! `sdalloc_sap::wire`: equal fingerprints ⇔ byte-identical traces
//! (each record is `time ‖ node ‖ encoded packet`).

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sdalloc_core::{AddrSpace, InformedRandomAllocator};
use sdalloc_runtime::{
    AgentDriver, Clock, DriverConfig, LoopbackBus, SnapshotCadence, SnapshotPublisher, VirtualClock,
};
use sdalloc_sap::directory::{DirectoryConfig, SessionDirectory};
use sdalloc_sap::sdp::{Media, Origin, SessionDescription};
use sdalloc_sap::testbed::Testbed;
use sdalloc_sap::wire::fnv1a_64;
use sdalloc_sim::{Channel, FaultPlan, SimDuration, SimRng, SimTime};

const SEED: u64 = 0xD1FF;
const HORIZON: SimTime = SimTime::from_secs(600);

fn config() -> DirectoryConfig {
    let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
    cfg.space = AddrSpace::abstract_space(256);
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

/// The scenario, testbed-side: one directory, one session created at
/// t = 0, run to the horizon.  Returns (trace, telemetry).
fn testbed_run() -> (Vec<u8>, String) {
    let mut tb = Testbed::new(
        vec![config()],
        || Box::new(InformedRandomAllocator),
        Channel::perfect(SimDuration::from_millis(50)),
        SEED,
    );
    tb.enable_packet_trace();
    let mut rng = SimRng::new(99);
    let now = tb.now();
    tb.directory_mut(0)
        .create_session(now, "parity", 127, media(), &mut rng)
        .unwrap();
    tb.kick(0);
    tb.run_until(HORIZON);
    let telemetry = tb.directory(0).telemetry_snapshot_json();
    (tb.take_packet_trace(), telemetry)
}

/// The same scenario, runtime-side: one agent driver on a loopback bus
/// under a virtual clock, deterministic drive.
fn runtime_run() -> (Vec<u8>, String) {
    let clock = Arc::new(VirtualClock::new());
    let bus = LoopbackBus::new(Arc::clone(&clock) as Arc<dyn Clock>, SEED, FaultPlan::new());
    bus.enable_packet_trace();
    let mut driver = AgentDriver::new(
        0,
        SEED,
        config(),
        Box::new(InformedRandomAllocator),
        bus.endpoint(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        DriverConfig::default(),
    );
    let mut rng = SimRng::new(99);
    let now = clock.now();
    driver
        .directory_mut()
        .create_session(now, "parity", 127, media(), &mut rng)
        .unwrap();
    driver.run_deterministic_until(&clock, HORIZON).unwrap();
    let telemetry = driver.directory().telemetry_snapshot_json();
    (bus.take_packet_trace(), telemetry)
}

#[test]
fn runtime_drive_matches_testbed_byte_for_byte() {
    let (tb_trace, tb_telemetry) = testbed_run();
    let (rt_trace, rt_telemetry) = runtime_run();
    assert!(
        !tb_trace.is_empty(),
        "scenario must emit packets for the comparison to mean anything"
    );
    assert_eq!(
        fnv1a_64(&tb_trace),
        fnv1a_64(&rt_trace),
        "packet traces diverge: testbed {} bytes, runtime {} bytes",
        tb_trace.len(),
        rt_trace.len()
    );
    assert_eq!(tb_trace, rt_trace, "fingerprints collide but bytes differ");
    assert_eq!(
        fnv1a_64(tb_telemetry.as_bytes()),
        fnv1a_64(rt_telemetry.as_bytes()),
        "telemetry diverges:\n--- testbed ---\n{tb_telemetry}\n--- runtime ---\n{rt_telemetry}"
    );
}

#[test]
fn runtime_drive_is_deterministic_across_runs() {
    let (a_trace, a_tel) = runtime_run();
    let (b_trace, b_tel) = runtime_run();
    assert_eq!(a_trace, b_trace);
    assert_eq!(a_tel, b_tel);
}

/// Feed one synthetic announcement into the directory's cache.
fn observe(dir: &mut SessionDirectory, now: SimTime, i: u64) {
    let desc = SessionDescription {
        origin: Origin {
            username: "-".into(),
            session_id: i,
            version: 1,
            address: Ipv4Addr::new(10, 0, 1, 1 + (i % 200) as u8),
        },
        name: format!("stress-session-{i}"),
        info: None,
        group: Ipv4Addr::new(224, 2, (i / 250 % 250) as u8, (i % 250) as u8),
        ttl: 127,
        start: 0,
        stop: 0,
        media: vec![],
    };
    dir.cache_observe_for_test(now, desc);
}

#[test]
fn readers_never_observe_torn_or_recycled_rows() {
    // Writer: churn the cache hard — a short cache timeout expires
    // entries continuously, so slab slots and interned names are
    // recycled while snapshots referencing the old rows are still held
    // by readers.  Publish on every mutation (far above any production
    // cadence) to maximise reclamation pressure.
    let mut cfg = config();
    cfg.cache_timeout = SimDuration::from_millis(40);
    let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
    dir.set_telemetry_identity(0, 7);
    let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
    let handle = publisher.handle();

    const READERS: usize = 4;
    const PUBLISHES: u64 = 3_000;
    let stop = Arc::new(AtomicBool::new(false));
    let corrupt = Arc::new(AtomicU64::new(0));
    let disorder = Arc::new(AtomicU64::new(0));
    let regressions = Arc::new(AtomicU64::new(0));
    let loads: Vec<Arc<AtomicU64>> = (0..READERS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let mut reader = handle.reader();
            let stop = Arc::clone(&stop);
            let corrupt = Arc::clone(&corrupt);
            let disorder = Arc::clone(&disorder);
            let regressions = Arc::clone(&regressions);
            let loads = Arc::clone(&loads[r]);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.load();
                    corrupt.fetch_add(snap.corrupt_rows() as u64, Ordering::Relaxed);
                    if snap.version() < last_version {
                        regressions.fetch_add(1, Ordering::Relaxed);
                    }
                    last_version = snap.version();
                    if !snap.rows().windows(2).all(|w| w[0].key < w[1].key) {
                        disorder.fetch_add(1, Ordering::Relaxed);
                    }
                    // Exercise the query surface while pinned.
                    let _ = snap.group_in_use(Ipv4Addr::new(224, 2, 0, 50));
                    let _ = snap.matching("stress").count();
                    drop(snap);
                    loads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let mut now = SimTime::ZERO;
    for i in 0..PUBLISHES {
        now = now.checked_add(SimDuration::from_millis(1)).unwrap();
        observe(&mut dir, now, i);
        // Run the engine's timers so expired entries are actually purged
        // (recycling their slab slots and interned names).
        let _ = dir.poll(now);
        publisher.publish(now, &dir);
    }
    stop.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().unwrap();
    }
    assert_eq!(
        corrupt.load(Ordering::Relaxed),
        0,
        "torn/recycled rows observed"
    );
    assert_eq!(
        disorder.load(Ordering::Relaxed),
        0,
        "unsorted snapshot observed"
    );
    assert_eq!(
        regressions.load(Ordering::Relaxed),
        0,
        "version went backwards"
    );
    for (r, l) in loads.iter().enumerate() {
        assert!(l.load(Ordering::Relaxed) > 0, "reader {r} made no progress");
    }
    assert_eq!(publisher.stats().published, PUBLISHES);
    // With a 40 ms timeout and 1 ms steps the cache must have cycled
    // through far more sessions than it can hold at once — i.e. slots
    // really were recycled under the readers.
    assert!(
        dir.cached_sessions() < PUBLISHES as usize / 10,
        "churn did not recycle: {} entries still cached",
        dir.cached_sessions()
    );
}
