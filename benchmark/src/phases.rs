//! The measured phases of one run: set-up, `saturate` (closed loop,
//! stepped agents) and `propagate` (open loop, spawned runtime), with
//! the output checks that decide whether the run counts.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::calib;
use crate::fixture::{Fixture, Kind, Rng, HOST_A, KEYWORD, SPACE_BASE, SPACE_SIZE};
use crate::stats::{exponential_schedule, Lateness, RateWindows, Samples};
use crate::sut::{Agents, BusCounters, ExitReport, PacketTable, Reader, Running};
use crate::workload::Workload;

/// Ticker schedule in `propagate`.
pub const TICK_HZ: u64 = 2_000;
/// Mean session-creation rate in `propagate` (seeded exponential gaps).
pub const CREATE_PER_S: f64 = 40.0;
/// A create not readable on B within this long is a failed operation.
pub const VISIBLE_LIMIT_MS: u64 = 2_000;
/// Packets the feeder sends per closed-loop iteration in `saturate`.
const FEED_BATCH: u64 = 64;
/// One point-query batch: this many `get` + this many `group_in_use`.
const POINT_BATCH: usize = 32;
/// A point-query sample every this long (every fourth tick), and a
/// keyword scan every this long: the reader is a light client, so that
/// the agents' own latencies are not those of a saturated host.
const POINT_GAP_NS: u64 = 2_000_000;
const SCAN_GAP_NS: u64 = 250_000_000;
/// Every timed query sample repeats its operation at least this long.
const MIN_SAMPLE: Duration = Duration::from_micros(50);
/// Keys compared against B's final snapshot.
const AUDIT_KEYS: usize = 10_000;
/// Window of the throughput median.
const RATE_WINDOW_NS: u64 = 500_000_000;
const PROBES: usize = 1 << 16;
/// One yardstick sample between two `saturate` slices.
const YARDSTICK: Duration = Duration::from_millis(4);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// How `--seconds` is split over the phases of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub saturate_ns: u64,
    pub warmup_ns: u64,
    pub propagate_ns: u64,
    /// Traced runs only: the budget of the per-layer micro timings.
    pub micro_ns: u64,
}

impl Plan {
    pub fn new(seconds: f64, traced: bool) -> Plan {
        let ns = |share: f64| (seconds * share * 1e9) as u64;
        let warmup_ns = ns(0.05).min(1_000_000_000);
        let total = ns(1.0);
        let (saturate_ns, propagate_ns) = if traced {
            (ns(0.2), ns(0.5))
        } else {
            let s = ns(0.125);
            (s, total.saturating_sub(s + warmup_ns))
        };
        Plan {
            saturate_ns,
            warmup_ns,
            propagate_ns,
            micro_ns: total.saturating_sub(saturate_ns + warmup_ns + propagate_ns),
        }
    }
}

/// The generated inputs of one run.
pub struct World {
    pub fx: Fixture,
    pub table: PacketTable,
}

/// One complete set-up, timed: fixture generation, packet table, both
/// agents built and pre-loaded, first snapshots published.
pub fn set_up(w: &Workload, seed: u64) -> (World, Agents, SetUp) {
    let before = calib::sample(YARDSTICK);
    let t = Instant::now();
    let fx = Fixture::generate(w.kind, w.residents, seed);
    let table = PacketTable::build(&fx);
    let agents = Agents::build(&fx, &table, seed, w.governor_max_entries);
    let secs = t.elapsed().as_secs_f64();
    let yardstick_ns = (before + calib::sample(YARDSTICK)) / 2.0;
    (World { fx, table }, agents, SetUp { secs, yardstick_ns })
}

/// One timed set-up and the yardstick taken around it.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    pub secs: f64,
    pub yardstick_ns: f64,
}

impl SetUp {
    /// The set-up time as it would read at the reference host speed.
    pub fn at_reference_speed(&self) -> f64 {
        calib::at_reference_speed(self.secs, self.yardstick_ns)
    }
}

/// Deleted clashing sessions an agent may hold beyond the ledger.  A
/// refresh of a resident arms a third-party defence for the *newcomer*
/// on its group too; if the feeder deletes that newcomer before the
/// defence fires, the other agent's defence announces it again and the
/// listener re-admits it.  The product does this (README, "What the
/// first runs showed"); the books allow for it and the run reports it.
const RESURRECTION_SLACK: usize = 16;

/// Compare agent cache sizes with the generator's ledger.
fn check_cached(
    w: &Workload,
    world: &World,
    pool_live: usize,
    who: &str,
    cached: usize,
    violations: &mut Vec<String>,
) {
    let residents = world.fx.residents.len();
    match w.governor_max_entries {
        Some(max) => {
            if cached > max || cached < residents {
                violations.push(format!(
                    "{who}: {cached} cached entries outside [{residents} residents, {max} budget]"
                ));
            }
        }
        None => {
            let want = residents + pool_live;
            let slack = if world.fx.kind == Kind::Churn {
                RESURRECTION_SLACK
            } else {
                0
            };
            if !(want..=want + slack).contains(&cached) {
                violations.push(format!(
                    "{who}: {cached} cached sessions, the generator's ledger says {want}"
                ));
            }
        }
    }
}

#[derive(Default)]
pub struct Saturated {
    /// Time per packet of each publish-to-publish slice, ns, at the
    /// reference host speed (`calib.rs`).
    pub slice_ns_per_packet: Samples,
    /// The same as measured.
    pub slice_ns_per_packet_raw: Samples,
    /// Per-second rates of the complete 0.5 s windows, for comparison.
    pub window_rates: Samples,
    /// Yardstick samples taken at the slice boundaries, ns per round.
    pub yardstick_ns: Samples,
    pub packets: u64,
    /// Traced runs only: each `AgentDriver::step`, µs.
    pub step_us: Samples,
    pub violations: Vec<String>,
}

impl Saturated {
    /// Pool a second chunk of the phase into this one.
    pub fn merge(&mut self, other: Saturated) {
        self.slice_ns_per_packet.append(&other.slice_ns_per_packet);
        self.slice_ns_per_packet_raw
            .append(&other.slice_ns_per_packet_raw);
        self.window_rates.append(&other.window_rates);
        self.yardstick_ns.append(&other.yardstick_ns);
        self.packets += other.packets;
        self.step_us.append(&other.step_us);
        self.violations.extend(other.violations);
    }

    /// Packets per second: the median slice's time per packet, turned
    /// into a rate.
    pub fn ingest_per_s(&mut self) -> f64 {
        if self.slice_ns_per_packet.is_empty() {
            return self.window_rates.median();
        }
        1e9 / self.slice_ns_per_packet.median()
    }
}

/// Closed loop on one harness thread: the feeder sends 64 packets of the
/// background mix, then B and A each take one step.  The queues are
/// never empty at a step, so nothing waits: this is capacity.
///
/// The phase is cut into slices at B's publishes, so every slice holds
/// one full cadence interval: one capture by B, about one by A, and the
/// packets between.  A run measures two chunks of this phase, one before
/// and one after `propagate`, each on a freshly set-up pair of agents,
/// and reports the median slice of both.  The host slows the ingest path
/// by a third to a half for tens of seconds at a time (README,
/// "Steadiness"), so each slice's time is scaled by the yardstick taken
/// right before and after it (`calib.rs`).
pub fn saturate(
    w: &Workload,
    world: &World,
    agents: &mut Agents,
    duration_ns: u64,
    traced: bool,
) -> Saturated {
    let mut stream = world.fx.stream();
    let mut ledger = world.fx.ledger();
    let mut violations = Vec::new();
    let mut step_us = Samples::default();
    let start = agents.now_ns();
    let end = start + duration_ns;
    let mut windows = RateWindows::new(start, RATE_WINDOW_NS);
    let mut slice_ns_per_packet = Samples::default();
    let mut slice_ns_per_packet_raw = Samples::default();
    let mut yardstick_ns = Samples::default();
    let mut step = |agents: &mut Agents, b: bool, violations: &mut Vec<String>| {
        let t = traced.then(Instant::now);
        let res = if b { agents.step_b() } else { agents.step_a() };
        if let Some(t) = t {
            step_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        if let Err(e) = res {
            violations.push(e);
        }
    };
    let mut now = start;
    // The first slice opens at B's first publish inside the phase.
    let mut published = agents.published_b();
    let mut slice: Option<(u64, u64, f64)> = None;
    while now < end && violations.is_empty() {
        for _ in 0..FEED_BATCH {
            let op = stream.next().expect("endless stream");
            ledger.apply(op);
            agents.feed(world.table.get(op));
        }
        step(agents, true, &mut violations);
        step(agents, false, &mut violations);
        agents.drain_tap();
        now = agents.now_ns();
        windows.add(now, FEED_BATCH);
        if let Some((_, packets, _)) = &mut slice {
            *packets += FEED_BATCH;
        }
        if agents.published_b() != published {
            published = agents.published_b();
            // Between slices, outside both: how fast is the host now?
            let yardstick = calib::sample(YARDSTICK);
            yardstick_ns.push(yardstick);
            if let Some((opened, packets, yardstick_at_open)) = slice {
                let measured = (now - opened) as f64 / packets.max(1) as f64;
                slice_ns_per_packet_raw.push(measured);
                slice_ns_per_packet.push(calib::at_reference_speed(
                    measured,
                    (yardstick_at_open + yardstick) / 2.0,
                ));
            }
            now = agents.now_ns();
            slice = Some((now, 0, yardstick));
        }
    }
    let window_rates = windows.complete_rates(now);
    // Let both agents finish what is queued (their own cross-traffic
    // included) before the books are compared.
    for _ in 0..2 {
        step(agents, true, &mut violations);
        step(agents, false, &mut violations);
        agents.drain_tap();
    }
    let (a, b) = agents.cached();
    let live = ledger.pool_live_count();
    check_cached(w, world, live, "saturate: agent A", a, &mut violations);
    check_cached(w, world, live, "saturate: agent B", b, &mut violations);
    check_bus("saturate", agents.bus_counters(), &mut violations);
    Saturated {
        slice_ns_per_packet,
        slice_ns_per_packet_raw,
        window_rates,
        yardstick_ns,
        packets: windows.total(),
        step_us,
        violations,
    }
}

fn check_bus(phase: &str, bus: BusCounters, violations: &mut Vec<String>) {
    if bus.dropped_full > 0 {
        violations.push(format!(
            "{phase}: bus dropped {} deliveries on a full queue",
            bus.dropped_full
        ));
    }
}

/// A session the creator made and the ticker is watching for on B.
struct Created {
    id: u64,
    due_ns: u64,
    returned_ns: u64,
}

/// The five spans of one created session, in ms; they sum to its
/// create-due → readable-on-B latency by construction.
#[derive(Debug, Default)]
pub struct Stages {
    pub command_ms: Samples,
    pub announce_ms: Samples,
    pub ingest_publish_wait_ms: Samples,
    pub capture_swap_ms: Samples,
    pub reader_poll_ms: Samples,
}

impl Stages {
    /// Record one session from its six boundary timestamps.  The tap and
    /// the reader both observe on the ticker's 0.5 ms grid, so a
    /// boundary can read a tick late; each is clamped between its
    /// predecessor and the hit, which keeps every span non-negative and
    /// the sum exact.
    fn record(
        &mut self,
        due: u64,
        returned: u64,
        heard: Option<u64>,
        published: u64,
        last_old: u64,
        hit: u64,
    ) {
        let mut prev = due;
        let mut span = |boundary: u64| {
            let b = boundary.clamp(prev, hit.max(prev));
            let d = ms(b - prev);
            prev = b;
            d
        };
        self.command_ms.push(span(returned));
        self.announce_ms.push(span(heard.unwrap_or(returned)));
        self.ingest_publish_wait_ms.push(span(published));
        self.capture_swap_ms.push(span(last_old));
        self.reader_poll_ms.push(span(hit));
    }
}

pub struct Propagated {
    pub visible_ms: Samples,
    pub staleness_ms: Samples,
    pub point_ns: Samples,
    pub scan_us: Samples,
    pub stages: Stages,
    pub creates: u64,
    pub create_errors: u64,
    pub missed: u64,
    pub audited: u64,
    pub audit_mismatches: u64,
    /// Deleted clashing sessions B still held at the end (see
    /// `RESURRECTION_SLACK`).
    pub resurrected: u64,
    pub ticker_late: Lateness,
    pub creator_late: Lateness,
    pub ticks_skipped: u64,
    pub create_rtt_us: Samples,
    /// Traced runs only: create round trips with the feeder silent, ms.
    pub create_rtt_idle_ms: Samples,
    pub background_sent: u64,
    pub spawn_s: f64,
    pub runtime_s: f64,
    pub exit_a: ExitReport,
    pub exit_b: ExitReport,
    pub bus: BusCounters,
    pub violations: Vec<String>,
}

/// Pre-drawn point-query arguments, so the timed loop draws nothing.
struct Probes {
    keys: Vec<(Ipv4Addr, u64)>,
    groups: Vec<Ipv4Addr>,
    at: usize,
}

impl Probes {
    fn new(fx: &Fixture, rng: &mut Rng) -> Probes {
        let keys = (0..PROBES)
            .map(|i| {
                if i % 2 == 0 {
                    let r = &fx.residents[rng.below(fx.residents.len() as u64) as usize];
                    (r.origin, r.id)
                } else {
                    fx.absent_key(rng)
                }
            })
            .collect();
        let groups = (0..PROBES)
            .map(|_| {
                Ipv4Addr::from(u32::from(SPACE_BASE) + rng.below(u64::from(SPACE_SIZE)) as u32)
            })
            .collect();
        Probes {
            keys,
            groups,
            at: 0,
        }
    }
}

/// Wait (bounded) until all of `ids` are readable on B (`readable`), or
/// until none is any more.  Once sessions that B has shown are gone from
/// it, B has ingested A's deletes and, the bus being FIFO per endpoint,
/// everything sent before them.
fn wait_on_b(
    running: &Running,
    reader: &mut Reader,
    ids: &[u64],
    readable: bool,
    limit: Duration,
) -> bool {
    let t = Instant::now();
    loop {
        running.drain_tap(false, |_| {});
        {
            let snap = reader.load();
            if ids.iter().all(|&id| snap.has(HOST_A, id) == readable) {
                return true;
            }
        }
        if t.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sleep_until(running: &Running, due_ns: u64) -> u64 {
    let now = running.now_ns();
    if now < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
        return running.now_ns();
    }
    now
}

/// Open loop against the spawned runtime.  Two harness threads generate
/// all load: the *ticker* (this thread: background packets, tap, reader,
/// visibility checks, query mix) and the *creator* (session creates on A
/// at seeded-exponential gaps).  Consumes the agents: ends with
/// shutdown and the audit of B's final snapshot.
pub fn propagate(
    w: &Workload,
    world: &World,
    agents: Agents,
    plan: &Plan,
    seed: u64,
    traced: bool,
) -> Propagated {
    let spawn_t = Instant::now();
    let running = match agents.spawn() {
        Ok(r) => r,
        Err(e) => {
            let mut failed = Propagated::empty();
            failed.violations.push(e);
            return failed;
        }
    };
    let spawn_s = spawn_t.elapsed().as_secs_f64();
    let runtime_t = Instant::now();

    let mut rng = Rng::new(seed ^ 0x0070_726f_7061_6761);
    let mut probes = Probes::new(&world.fx, &mut rng);
    let mut reader = running.reader_b();
    let mut stream = world.fx.stream();
    let mut ledger = world.fx.ledger();

    let t0 = running.now_ns();
    let measure_from = t0 + plan.warmup_ns;
    let measure_until = measure_from + plan.propagate_ns;
    let limit_ns = VISIBLE_LIMIT_MS * 1_000_000;
    let period_ns = 1_000_000_000 / TICK_HZ;
    let packet_gap_ns = 1e9 / w.background_pps as f64;

    let outstanding: Mutex<Vec<Created>> = Mutex::new(Vec::new());
    // Ids the ticker wants withdrawn.  The creator issues them: a
    // runtime command blocks while A's 16-slot command channel is full,
    // and a blocked ticker would stop the background traffic that A's
    // loop turns are paced by.
    let withdraw_queue: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let creator_done = AtomicBool::new(false);
    let ticker_done = AtomicBool::new(false);
    let mut create_rng = Rng::new(seed ^ 0x6372_6561_746f_7221);
    let offsets = exponential_schedule(|| create_rng.f64(), CREATE_PER_S, plan.propagate_ns);

    let mut out = Propagated::empty();
    out.spawn_s = spawn_s;
    let mut withdrawn: Vec<u64> = Vec::new();
    let mut corrupt_snapshots = 0u64;

    std::thread::scope(|scope| {
        let creator = scope.spawn(|| {
            let mut late = Lateness::default();
            let mut rtt_us = Samples::default();
            let (mut made, mut errors) = (0u64, 0u64);
            let mut upcoming = offsets.iter();
            let mut next_due = upcoming.next().map(|off| measure_from + off);
            loop {
                let ids = std::mem::take(&mut *withdraw_queue.lock().expect("queue"));
                for id in ids {
                    running.withdraw(id);
                }
                let now = running.now_ns();
                match next_due {
                    Some(due) if now >= due => {
                        late.record(due, now);
                        let (name, ttl) = (create_rng.name(), create_rng.ttl());
                        match running.create(&name, ttl) {
                            Ok(id) => {
                                let returned = running.now_ns();
                                rtt_us.push((returned - now) as f64 / 1e3);
                                outstanding.lock().expect("list").push(Created {
                                    id,
                                    due_ns: due,
                                    returned_ns: returned,
                                });
                                made += 1;
                            }
                            Err(_) => errors += 1,
                        }
                        next_due = upcoming.next().map(|off| measure_from + off);
                        if next_due.is_none() {
                            creator_done.store(true, Ordering::SeqCst);
                        }
                    }
                    // Sleep to the next create, waking for withdraws.
                    Some(due) => {
                        std::thread::sleep(Duration::from_nanos((due - now).min(2_000_000)))
                    }
                    None if ticker_done.load(Ordering::SeqCst) => {
                        if withdraw_queue.lock().expect("queue").is_empty() {
                            break;
                        }
                    }
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            (late, rtt_us, made, errors)
        });

        // ---- the ticker ----
        let mut heard: HashMap<u64, u64> = HashMap::new();
        let mut tick = 0u64;
        let mut last_version = 0u64;
        let mut prev_load = t0;
        // The last tick that still saw the predecessor of the current
        // snapshot version: the swap happened after it.
        let mut last_old = t0;
        let mut to_withdraw: Vec<u64> = Vec::new();
        let (mut next_point, mut next_scan) = (0u64, 0u64);
        loop {
            let due = t0 + tick * period_ns;
            let now = sleep_until(&running, due);
            let measuring = (measure_from..measure_until).contains(&now);
            if measuring {
                out.ticker_late.record(due, now);
            }

            // 1. Background packets that are due by now.
            let want = ((now - t0) as f64 / packet_gap_ns) as u64 + 1;
            while out.background_sent < want {
                let op = stream.next().expect("endless stream");
                ledger.apply(op);
                running.feed(world.table.get(op));
                out.background_sent += 1;
            }

            // 2. The tap hears everything A and B send.
            running.drain_tap(traced, |id| {
                heard.entry(id).or_insert(now);
            });

            // 3. Load B's snapshot, as any reader would.
            let snap = reader.load();
            let t_load = running.now_ns();
            let new_version = snap.version() != last_version;
            if new_version {
                last_version = snap.version();
                last_old = prev_load;
            }
            prev_load = t_load;
            if measuring {
                out.staleness_ms.push(ms(snap.staleness_ns(t_load)));
            }

            // 4. Which outstanding creates are readable on B now?
            {
                let mut list = outstanding
                    .lock()
                    .expect("creator never panics holding the list");
                list.retain(|c| {
                    if snap.has(HOST_A, c.id) {
                        out.visible_ms.push(ms(t_load.saturating_sub(c.due_ns)));
                        if traced {
                            out.stages.record(
                                c.due_ns,
                                c.returned_ns,
                                heard.remove(&c.id),
                                snap.published_at_ns(),
                                last_old,
                                t_load,
                            );
                        }
                    } else if t_load.saturating_sub(c.due_ns) > limit_ns {
                        out.missed += 1;
                    } else {
                        return true;
                    }
                    to_withdraw.push(c.id);
                    false
                });
            }
            // Withdraw what was seen, so A's own-session set stays
            // stationary.
            if !to_withdraw.is_empty() {
                withdrawn.extend_from_slice(&to_withdraw);
                withdraw_queue
                    .lock()
                    .expect("queue")
                    .append(&mut to_withdraw);
            }

            // 5. The query mix.
            if measuring && now >= next_point {
                next_point = now + POINT_GAP_NS;
                let t = Instant::now();
                let (mut n, mut hits) = (0u64, 0u64);
                loop {
                    for _ in 0..POINT_BATCH {
                        let (origin, id) = probes.keys[probes.at];
                        let group = probes.groups[probes.at];
                        probes.at = (probes.at + 1) % PROBES;
                        hits += u64::from(snap.has(origin, id));
                        hits += u64::from(snap.group_in_use(group));
                    }
                    n += 2 * POINT_BATCH as u64;
                    if t.elapsed() >= MIN_SAMPLE {
                        break;
                    }
                }
                out.point_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
                if now >= next_scan {
                    next_scan = now + SCAN_GAP_NS;
                    let t = Instant::now();
                    let mut scans = 0u64;
                    loop {
                        hits += snap.matching(KEYWORD) as u64;
                        scans += 1;
                        if t.elapsed() >= MIN_SAMPLE {
                            break;
                        }
                    }
                    out.scan_us
                        .push(t.elapsed().as_nanos() as f64 / 1e3 / scans as f64);
                }
                std::hint::black_box(hits);
            }

            // 6. Every snapshot a reader can load must verify in full.
            if new_version && snap.corrupt_rows() > 0 {
                corrupt_snapshots += 1;
            }
            drop(snap);

            let now = running.now_ns();
            if now >= measure_until {
                let idle = creator_done.load(Ordering::SeqCst)
                    && outstanding.lock().expect("list").is_empty();
                if idle || now >= measure_until + limit_ns + 500_000_000 {
                    break;
                }
            }
            // Ticks that a long scan ran over are skipped, not replayed:
            // the background packets they owed were sent by time above.
            let next = (now - t0) / period_ns + 1;
            out.ticks_skipped += next - (tick + 1);
            tick = next;
        }

        // Anything still outstanding ran past the safety cap.
        let leftover = std::mem::take(&mut *outstanding.lock().expect("list"));
        out.missed += leftover.len() as u64;
        withdrawn.extend(leftover.iter().map(|c| c.id));
        withdraw_queue
            .lock()
            .expect("queue")
            .extend(leftover.iter().map(|c| c.id));
        ticker_done.store(true, Ordering::SeqCst);
        let (late, rtt_us, made, errors) = creator.join().expect("creator thread");
        out.creator_late = late;
        out.create_rtt_us = rtt_us;
        out.creates = made + errors;
        out.create_errors = errors;
    });
    // Settle: the feeder is silent now.
    let recent = &withdrawn[withdrawn.len().saturating_sub(64)..];
    if !wait_on_b(
        &running,
        &mut reader,
        recent,
        false,
        Duration::from_millis(3_000),
    ) {
        out.violations
            .push("settle: withdrawn sessions still readable on B after 3 s".into());
    }

    if traced {
        // One command per loop turn, each turn waiting up to `idle_wait`
        // for a packet that does not come.
        let mut ids = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            if let Ok(id) = running.create(&rng.name(), rng.ttl()) {
                out.create_rtt_idle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ids.push(id);
            }
        }
        // Withdraw them only once B shows them all: a session B has not
        // published yet would pass for one it has already dropped.
        let shown = wait_on_b(
            &running,
            &mut reader,
            &ids,
            true,
            Duration::from_millis(2_000),
        );
        for &id in &ids {
            running.withdraw(id);
        }
        if !shown
            || !wait_on_b(
                &running,
                &mut reader,
                &ids,
                false,
                Duration::from_millis(4_000),
            )
        {
            out.violations.push(
                "idle creates: not readable on B within 2 s, or still readable 4 s after their withdrawal"
                    .into(),
            );
        }
    }
    drop(reader);

    let done = running.shutdown();
    out.runtime_s = runtime_t.elapsed().as_secs_f64();
    out.bus = done.bus;
    check_bus("propagate", done.bus, &mut out.violations);
    if corrupt_snapshots > 0 || done.final_b.corrupt_rows() > 0 {
        out.violations.push(format!(
            "{corrupt_snapshots} loaded snapshots had corrupt rows"
        ));
    }
    for (who, exit) in [("agent A", &done.a), ("agent B", &done.b)] {
        if let Some(e) = &exit.error {
            out.violations.push(format!("{who} exited with: {e}"));
        }
        let live = ledger.pool_live_count();
        check_cached(
            w,
            world,
            live,
            &format!("propagate: {who}"),
            exit.cached_sessions,
            &mut out.violations,
        );
    }
    // B's surplus over the ledger must be exactly the deleted clashing
    // sessions its final snapshot still holds.
    out.resurrected = (world.fx.pool_clash_from..world.fx.pool.len())
        .filter(|&k| {
            let s = &world.fx.pool[k];
            !ledger.pool_is_live(k) && done.final_b.group_of(s.origin, s.id).is_some()
        })
        .count() as u64;
    let books = world.fx.residents.len() + ledger.pool_live_count() + out.resurrected as usize;
    if world.fx.kind == Kind::Churn && done.b.cached_sessions != books {
        out.violations.push(format!(
            "propagate: agent B holds {} sessions, ledger plus {} resurrected says {books}",
            done.b.cached_sessions, out.resurrected
        ));
    }
    if done.final_b.len() != done.b.cached_sessions {
        out.violations.push(format!(
            "B's final snapshot has {} rows, its cache {}",
            done.final_b.len(),
            done.b.cached_sessions
        ));
    }

    // Audit B's final snapshot against the generator: key present ⇔ the
    // ledger says live, and the group matches.
    let fx = &world.fx;
    let mut expect = |origin: Ipv4Addr, id: u64, want: Option<Ipv4Addr>| {
        out.audited += 1;
        if done.final_b.group_of(origin, id) != want {
            out.audit_mismatches += 1;
        }
    };
    let pool_share = if fx.pool.is_empty() {
        0
    } else {
        AUDIT_KEYS * 3 / 10
    };
    for _ in 0..AUDIT_KEYS - pool_share - AUDIT_KEYS / 10 {
        let r = &fx.residents[rng.below(fx.residents.len() as u64) as usize];
        expect(r.origin, r.id, Some(r.group));
    }
    for _ in 0..pool_share {
        let k = rng.below(fx.pool.len() as u64) as usize;
        let s = &fx.pool[k];
        let resurrected = k >= fx.pool_clash_from
            && !ledger.pool_is_live(k)
            && done.final_b.group_of(s.origin, s.id) == Some(s.group);
        if resurrected {
            // Counted below against the slack, not as a wrong answer.
            expect(s.origin, s.id, Some(s.group));
        } else {
            expect(s.origin, s.id, ledger.pool_is_live(k).then_some(s.group));
        }
    }
    for _ in 0..AUDIT_KEYS / 10 {
        let (origin, id) = fx.absent_key(&mut rng);
        expect(origin, id, None);
    }
    if fx.kind == Kind::Storm {
        // Every legitimate resident must have survived the flood.
        let lost = fx
            .residents
            .iter()
            .filter(|r| done.final_b.group_of(r.origin, r.id) != Some(r.group))
            .count();
        if lost > 0 {
            out.violations.push(format!(
                "storm: {lost} legitimate residents were evicted or altered"
            ));
        }
    }
    out.exit_a = done.a;
    out.exit_b = done.b;
    out
}

impl Propagated {
    fn empty() -> Propagated {
        Propagated {
            visible_ms: Samples::default(),
            staleness_ms: Samples::default(),
            point_ns: Samples::default(),
            scan_us: Samples::default(),
            stages: Stages::default(),
            creates: 0,
            create_errors: 0,
            missed: 0,
            audited: 0,
            audit_mismatches: 0,
            resurrected: 0,
            ticker_late: Lateness::default(),
            creator_late: Lateness::default(),
            ticks_skipped: 0,
            create_rtt_us: Samples::default(),
            create_rtt_idle_ms: Samples::default(),
            background_sent: 0,
            spawn_s: 0.0,
            runtime_s: 0.0,
            exit_a: ExitReport::default(),
            exit_b: ExitReport::default(),
            bus: BusCounters::default(),
            violations: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn plan_spends_exactly_the_seconds_it_is_given() {
        for traced in [false, true] {
            let p = Plan::new(20.0, traced);
            let total = p.saturate_ns + p.warmup_ns + p.propagate_ns + p.micro_ns;
            assert_eq!(total, 20_000_000_000);
            assert_eq!(p.warmup_ns, 1_000_000_000);
            assert_eq!(p.micro_ns == 0, !traced);
        }
    }

    #[test]
    fn stage_spans_sum_to_the_visible_latency() {
        let mut s = Stages::default();
        // In order.
        s.record(
            1_000_000,
            2_000_000,
            Some(3_000_000),
            50_000_000,
            90_000_000,
            90_500_000,
        );
        // Tap read a tick late (after the publish began); no tap at all.
        s.record(
            0,
            1_000_000,
            Some(9_000_000),
            8_000_000,
            20_000_000,
            20_400_000,
        );
        s.record(0, 1_000_000, None, 8_000_000, 20_000_000, 20_400_000);
        let spans = [
            &s.command_ms,
            &s.announce_ms,
            &s.ingest_publish_wait_ms,
            &s.capture_swap_ms,
            &s.reader_poll_ms,
        ];
        assert!(spans.iter().all(|x| x.len() == 3));
        let sum: f64 = spans.iter().map(|x| x.mean() * 3.0).sum();
        let total_ms = (90_500_000.0 - 1_000_000.0 + 20_400_000.0 + 20_400_000.0) / 1e6;
        assert!((sum - total_ms).abs() < 1e-9);
        assert!(
            spans.iter().all(|x| (*x).clone().p(1.0) >= 0.0),
            "no negative span"
        );
    }

    #[test]
    fn short_run_of_every_workload_passes_its_own_checks() {
        // Reduced residents so the debug-profile test stays quick; the
        // phases, checks and ledger are the real ones.
        for w in &workload::WORKLOADS {
            let small = Workload {
                residents: w.residents.min(2_000),
                // Same slack above the residents as the real workload, so
                // a fresh session outlives a snapshot interval on B.
                governor_max_entries: w.governor_max_entries.map(|max| max - w.residents + 2_000),
                ..*w
            };
            let plan = Plan::new(2.0, true);
            let (world, mut agents, _) = set_up(&small, 5);
            let mut sat = saturate(&small, &world, &mut agents, plan.saturate_ns, true);
            assert_eq!(sat.violations, Vec::<String>::new(), "{}", w.name);
            assert!(sat.packets > 0 && sat.ingest_per_s() > 0.0);
            let (world, agents, _) = set_up(&small, 5);
            let mut p = propagate(&small, &world, agents, &plan, 5, true);
            assert_eq!(p.violations, Vec::<String>::new(), "{}", w.name);
            assert!(p.creates > 10, "{}: {} creates", w.name, p.creates);
            assert_eq!(
                (p.create_errors, p.missed, p.audit_mismatches),
                (0, 0, 0),
                "{}",
                w.name
            );
            assert_eq!(p.visible_ms.len() as u64, p.creates);
            assert_eq!(p.audited, AUDIT_KEYS as u64);
            assert!(p.visible_ms.median() > 0.0);
            assert_eq!(p.stages.command_ms.len(), p.visible_ms.len());
        }
    }
}
