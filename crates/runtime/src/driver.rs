//! The agent driver and the threaded multi-agent runtime.
//!
//! [`AgentDriver`] owns one [`SessionDirectory`] plus its transport and
//! pumps the protocol: sleep until the directory's `next_deadline` or a
//! packet arrives, dispatch timers/packets, and publish a snapshot
//! whenever the cache has changed, as often as a fixed share of the
//! loop's time pays for ([`SnapshotCadence`]: the driver times each
//! publish on its own clock and charges the publisher).  The same driver
//! runs in three modes:
//!
//! * **threaded** — [`Runtime::spawn`] gives each driver its own thread
//!   plus a command channel, the production shape; a command wakes the
//!   thread out of its listen through [`SapTransport::waker`];
//! * **stepped** — call [`AgentDriver::step`] from your own loop;
//! * **deterministic** — [`AgentDriver::run_deterministic_until`] over a
//!   [`VirtualClock`] and a quiet loopback bus replays the exact
//!   wake-on-deadline discipline of the discrete-event testbed, which is
//!   what the differential fingerprint tests rely on.
//!
//! The driver keeps its `runtime.*` telemetry in its *own*
//! [`Telemetry`] instance (same node/seed identity as the directory's):
//! the directory's telemetry stream stays byte-comparable with the
//! simulator's, while the driver layer still gets per-thread counters.
//!
//! A threaded agent absorbs transient transport errors under a
//! [`RetryPolicy`] (jittered exponential backoff); only a persistent
//! failure run ends the thread, and then the error is surfaced through
//! [`AgentExit::error`] and the exit dump rather than lost.

use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use sdalloc_core::Allocator;
use sdalloc_sap::net::{SapTransport, Waker};
use sdalloc_sap::{CreateError, DirectoryConfig, Media, SessionDirectory};
use sdalloc_sim::{FaultPlan, SimRng, SimTime};
use sdalloc_telemetry::{CounterId, Severity, Telemetry, NO_ARG};

use crate::clock::{Clock, VirtualClock};
use crate::snapshot::{SnapshotCadence, SnapshotHandle, SnapshotPublisher, SnapshotStats};

/// Pump-loop knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Shortest listen budget per step (keeps a deadline-crowded driver
    /// from busy-spinning on the socket).
    pub min_wait: Duration,
    /// Listen budget when nothing is due.  A threaded agent's commands
    /// do not wait it out: they wake the transport, and over a transport
    /// that cannot be woken [`Runtime::spawn`] caps it at
    /// [`UNWAKEABLE_LISTEN`].
    pub idle_wait: Duration,
    /// After a blocking receive, drain at most this many further queued
    /// packets without waiting before re-checking timers.
    pub drain_batch: usize,
    /// The share of the loop snapshot publication may take.
    pub cadence: SnapshotCadence,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            min_wait: Duration::from_millis(1),
            idle_wait: Duration::from_millis(50),
            drain_batch: 64,
            cadence: SnapshotCadence::default(),
        }
    }
}

/// How a threaded agent reacts to transport errors.
///
/// Transient I/O errors (an interface flap, a full socket buffer) should
/// not kill a long-lived announcer: the worker backs off exponentially
/// with full jitter and keeps going.  Only `max_consecutive` failures in
/// a row (or a failure run outliving `max_elapsed`) are treated as
/// persistent and end the thread.  `max_consecutive: 0` never retries.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive failures tolerated before giving up.
    pub max_consecutive: u32,
    /// First backoff ceiling; doubles each consecutive failure.
    pub base: Duration,
    /// Upper bound on the backoff ceiling.
    pub cap: Duration,
    /// Total budget, on the driver's clock, for one unbroken failure
    /// run, measured from the first error of the run.  A run that
    /// outlives this is terminal even with `max_consecutive` to spare,
    /// so a permanently dead transport cannot spin the worker forever
    /// at max backoff.  `None` leaves only the attempt cap.
    pub max_elapsed: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_consecutive: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            max_elapsed: Some(Duration::from_secs(300)),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): uniform in
    /// `[0, min(cap, base·2^attempt))` — "full jitter", so co-failing
    /// agents do not retry in lockstep.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.min(20)))
            .min(self.cap);
        let nanos = ceiling.as_nanos().min(u64::MAX as u128) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.below(nanos))
    }
}

/// Everything a worker thread hands back when it exits.
#[derive(Debug)]
pub struct AgentExit {
    /// The agent's node index.
    pub node: u32,
    /// Sessions cached at exit.
    pub cached_sessions: usize,
    /// The directory's telemetry snapshot (protocol counters).
    pub directory_telemetry: String,
    /// The driver's own `runtime.*` telemetry snapshot.
    pub runtime_telemetry: String,
    /// Flight-recorder post-mortem, always captured at exit.
    pub flight_dump: String,
    /// Snapshot publication counters.
    pub snapshot_stats: SnapshotStats,
    /// The I/O error that exhausted the [`RetryPolicy`] and killed the
    /// pump, if it did not exit cleanly.
    pub error: Option<String>,
}

/// One directory agent bound to a transport and a clock.
pub struct AgentDriver<T: SapTransport> {
    node: u32,
    cfg: DriverConfig,
    directory: SessionDirectory,
    transport: T,
    clock: Arc<dyn Clock>,
    rng: SimRng,
    publisher: SnapshotPublisher,
    telemetry: Telemetry,
    c_steps: CounterId,
    c_rx: CounterId,
    c_tx: CounterId,
    c_snapshots: CounterId,
    c_snapshot_replays: CounterId,
    c_snapshot_rows_changed: CounterId,
    c_snapshot_deferred: CounterId,
    c_snapshot_cost_us: CounterId,
    c_restarts: CounterId,
    c_rx_dropped: CounterId,
    c_commands: CounterId,
    c_command_wakes: CounterId,
    c_retries: CounterId,
    c_terminal_failures: CounterId,
    retry: RetryPolicy,
    /// Backoff jitter draws from its own stream so a fault never
    /// perturbs the protocol's.
    retry_rng: SimRng,
    /// Crash windows emulated by the driver itself (soak scenarios):
    /// while "down" the agent discards traffic and mutates nothing;
    /// coming back up runs [`SessionDirectory::restart`].
    faults: Option<FaultPlan>,
    crashed: bool,
}

impl<T: SapTransport> AgentDriver<T> {
    /// Build a driver; `node`/`seed` become both the directory's and the
    /// driver's telemetry identity.
    pub fn new(
        node: u32,
        seed: u64,
        dir_cfg: DirectoryConfig,
        allocator: Box<dyn Allocator>,
        transport: T,
        clock: Arc<dyn Clock>,
        cfg: DriverConfig,
    ) -> AgentDriver<T> {
        let mut directory = SessionDirectory::new(dir_cfg, allocator);
        directory.set_telemetry_identity(node, seed);
        let mut telemetry = Telemetry::new(node, seed);
        let c_steps = telemetry.counter("runtime.steps");
        let c_rx = telemetry.counter("runtime.rx");
        let c_tx = telemetry.counter("runtime.tx");
        let c_snapshots = telemetry.counter("runtime.snapshots");
        let c_snapshot_replays = telemetry.counter("runtime.snapshot_replays");
        let c_snapshot_rows_changed = telemetry.counter("runtime.snapshot_rows_changed");
        let c_snapshot_deferred = telemetry.counter("runtime.snapshot_deferred");
        let c_snapshot_cost_us = telemetry.counter("runtime.snapshot_cost_us");
        let c_restarts = telemetry.counter("runtime.restarts");
        let c_rx_dropped = telemetry.counter("runtime.rx_predecode_dropped");
        let c_commands = telemetry.counter("runtime.commands");
        let c_command_wakes = telemetry.counter("runtime.command_wakes");
        let c_retries = telemetry.counter("runtime.retries");
        let c_terminal_failures = telemetry.counter("runtime.terminal_failures");
        let rng_seed = seed ^ u64::from(node).rotate_left(32);
        AgentDriver {
            node,
            cfg,
            directory,
            transport,
            clock,
            rng: SimRng::new(rng_seed),
            publisher: SnapshotPublisher::new(cfg.cadence),
            telemetry,
            c_steps,
            c_rx,
            c_tx,
            c_snapshots,
            c_snapshot_replays,
            c_snapshot_rows_changed,
            c_snapshot_deferred,
            c_snapshot_cost_us,
            c_restarts,
            c_rx_dropped,
            c_commands,
            c_command_wakes,
            c_retries,
            c_terminal_failures,
            retry: RetryPolicy::default(),
            retry_rng: SimRng::new(rng_seed ^ RETRY_STREAM),
            faults: None,
            crashed: false,
        }
    }

    /// Install driver-emulated crash windows (soak scenarios).  Only the
    /// crash windows are consulted here; link faults belong to the bus.
    pub fn with_faults(mut self, plan: FaultPlan) -> AgentDriver<T> {
        self.faults = Some(plan);
        self
    }

    /// Replace the retry policy a threaded agent applies (builder
    /// style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> AgentDriver<T> {
        self.retry = retry;
        self
    }

    /// This agent's node index.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The engine (e.g. to create sessions before spawning).
    pub fn directory_mut(&mut self) -> &mut SessionDirectory {
        &mut self.directory
    }

    /// The engine, read-only.
    pub fn directory(&self) -> &SessionDirectory {
        &self.directory
    }

    /// The clock this driver maps protocol time onto.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Readers attach here; cloneable and thread-safe.
    pub fn snapshot_handle(&self) -> SnapshotHandle {
        self.publisher.handle()
    }

    /// Snapshot publication counters.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.publisher.stats()
    }

    /// The driver's `runtime.*` telemetry snapshot.
    pub fn runtime_telemetry_json(&self) -> String {
        self.telemetry.snapshot_json()
    }

    /// Create a session now, with the driver's own RNG.
    pub fn create_session(
        &mut self,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let now = self.clock.now();
        let id = self
            .directory
            .create_session(now, name, ttl, media, &mut self.rng)?;
        Ok(id)
    }

    /// Withdraw a session, sending its deletion packet.
    pub fn withdraw_session(&mut self, id: u64) -> io::Result<()> {
        if let Some(pkt) = self.directory.withdraw_session(id) {
            self.transport.send(&pkt)?;
            self.telemetry.inc(self.c_tx);
        }
        Ok(())
    }

    /// Publish a snapshot right now, whether or not one is due.
    pub fn publish_now(&mut self) {
        self.publish(true);
    }

    /// Publish — unconditionally with `force`, else when the cache has
    /// changed and the publisher's rule lets it — time it on the
    /// driver's clock, charge the publisher that cost, and mirror what
    /// the publisher did into `runtime.*`: how many publishes, how many
    /// replayed rather than captured, the rows they wrote, what they
    /// cost, and how often one waited for a reader to release the spare.
    fn publish(&mut self, force: bool) {
        let before = self.publisher.stats();
        let started = self.clock.now();
        if force {
            self.publisher.publish(started, &self.directory);
        } else if !self.publisher.maybe_publish(started, &self.directory) {
            let deferred = self.publisher.stats().deferred - before.deferred;
            self.telemetry.inc_by(self.c_snapshot_deferred, deferred);
            return;
        }
        let finished = self.clock.now();
        self.publisher
            .charge(finished, finished.saturating_since(started));
        let stats = self.publisher.stats();
        self.telemetry.inc(self.c_snapshots);
        self.telemetry
            .inc_by(self.c_snapshot_replays, stats.replayed - before.replayed);
        self.telemetry
            .inc_by(self.c_snapshot_rows_changed, stats.rows_rewritten as u64);
        // Whole microseconds of the running total, so that sub-µs
        // publishes add up instead of each rounding to nothing.
        self.telemetry.inc_by(
            self.c_snapshot_cost_us,
            stats.cost_ns / 1_000 - before.cost_ns / 1_000,
        );
    }

    /// Feed one received packet to the engine and send any replies.
    fn ingest(&mut self, now: SimTime, pkt: &sdalloc_sap::SapPacket) -> io::Result<()> {
        self.telemetry.inc(self.c_rx);
        let (replies, _events) = self.directory.on_packet(now, pkt, &mut self.rng);
        for reply in replies {
            self.transport.send(&reply)?;
            self.telemetry.inc(self.c_tx);
        }
        Ok(())
    }

    /// Account pre-decode datagram deaths the transport observed.
    fn drain_predecode_drops(&mut self, now: SimTime) {
        let drops = self.transport.take_rx_predecode_drops();
        for _ in 0..drops {
            self.directory.note_rx_dropped(now);
        }
        self.telemetry.inc_by(self.c_rx_dropped, drops);
    }

    /// Emulated crash handling; returns true when the step is consumed
    /// (the agent is down).
    fn crash_window_step(&mut self, now: SimTime) -> io::Result<bool> {
        let Some(plan) = &self.faults else {
            return Ok(false);
        };
        if plan.node_up(now, self.node as usize) {
            if self.crashed {
                self.crashed = false;
                self.directory.restart(self.clock.now());
                self.telemetry.inc(self.c_restarts);
                // Readers must see the wiped cache immediately: the
                // crash exposure window is measured off this snapshot.
                self.publish_now();
            }
            return Ok(false);
        }
        self.crashed = true;
        // Down: the socket is gone — discard anything queued and idle.
        while self.transport.recv(Duration::ZERO)?.is_some() {}
        let _ = self.transport.take_rx_predecode_drops();
        std::thread::sleep(self.cfg.min_wait);
        Ok(true)
    }

    /// One pump iteration: run due timers, publish what changed, listen
    /// until the next deadline (capped), ingest what arrives, publish
    /// that.
    pub fn step(&mut self) -> io::Result<()> {
        self.telemetry.inc(self.c_steps);
        let now = self.clock.now();
        if self.crash_window_step(now)? {
            return Ok(());
        }
        for pkt in self.directory.poll(now) {
            self.transport.send(&pkt)?;
            self.telemetry.inc(self.c_tx);
        }
        self.publish(false);
        // Listen until whichever is due first: the directory's next
        // timer, or a publish that is owed but still being paid for.
        let due = [
            self.directory.next_deadline(),
            self.publisher.pending_until(&self.directory),
        ];
        let wait = due
            .into_iter()
            .flatten()
            .min()
            .map_or(self.cfg.idle_wait, |d| {
                let gap = Duration::from_nanos(d.saturating_since(now).as_nanos());
                gap.clamp(self.cfg.min_wait, self.cfg.idle_wait)
            });
        if let Some(pkt) = self.transport.recv(wait)? {
            let rnow = self.clock.now();
            self.ingest(rnow, &pkt)?;
            for _ in 0..self.cfg.drain_batch {
                match self.transport.recv(Duration::ZERO)? {
                    Some(p) => self.ingest(self.clock.now(), &p)?,
                    None => break,
                }
            }
            self.publish(false);
        }
        self.drain_predecode_drops(self.clock.now());
        Ok(())
    }

    /// Drive deterministically over a [`VirtualClock`]: ingest whatever
    /// is queued, then jump the clock straight to the directory's next
    /// deadline and run it — the identical wake-on-deadline discipline
    /// the discrete-event testbed applies, so a single agent on a quiet
    /// loopback bus produces a byte-identical packet trace.
    ///
    /// `vclock` must be the same clock this driver was built with.
    pub fn run_deterministic_until(
        &mut self,
        vclock: &VirtualClock,
        horizon: SimTime,
    ) -> io::Result<()> {
        loop {
            while let Some(pkt) = self.transport.recv(Duration::ZERO)? {
                self.ingest(vclock.now(), &pkt)?;
            }
            self.drain_predecode_drops(vclock.now());
            let Some(deadline) = self.directory.next_deadline() else {
                break;
            };
            if deadline > horizon {
                break;
            }
            vclock.advance_to(deadline);
            let now = vclock.now();
            for pkt in self.directory.poll(now) {
                self.transport.send(&pkt)?;
                self.telemetry.inc(self.c_tx);
            }
            self.publish(false);
        }
        vclock.advance_to(horizon);
        Ok(())
    }

    /// Account one failed pump turn, the `consecutive`-th in a row of
    /// a failure run that began at `since`.  Returns the jittered pause
    /// before the next attempt, or `None` when the run is terminal.
    /// Counters go to the driver's telemetry; the event goes to the
    /// directory's flight recorder, in order with the protocol activity
    /// that preceded the fault.
    fn absorb_failure(&mut self, consecutive: u32, since: SimTime) -> Option<Duration> {
        let now = self.clock.now();
        let out_of_time = self.retry.max_elapsed.is_some_and(|budget| {
            u128::from(now.saturating_since(since).as_nanos()) >= budget.as_nanos()
        });
        let terminal = consecutive >= self.retry.max_consecutive || out_of_time;
        let (counter, severity, name) = if terminal {
            (
                self.c_terminal_failures,
                Severity::Error,
                "terminal_failure",
            )
        } else {
            (self.c_retries, Severity::Warn, "retry")
        };
        self.telemetry.inc(counter);
        self.directory.telemetry_mut().record(
            now.as_nanos(),
            severity,
            "net",
            name,
            [("attempt", u64::from(consecutive)), NO_ARG, NO_ARG],
        );
        (!terminal).then(|| self.retry.backoff(consecutive, &mut self.retry_rng))
    }

    /// Consume the driver into its exit report.
    pub fn into_exit(self, error: Option<String>) -> AgentExit {
        let reason = match &error {
            Some(e) => format!("agent pump terminated: {e}"),
            None => "runtime agent exit".to_string(),
        };
        AgentExit {
            node: self.node,
            cached_sessions: self.directory.cached_sessions(),
            directory_telemetry: self.directory.telemetry_snapshot_json(),
            runtime_telemetry: self.telemetry.snapshot_json(),
            flight_dump: self.directory.flight_dump_json(&reason),
            snapshot_stats: self.publisher.stats(),
            error,
        }
    }
}

/// Seed offset separating the backoff-jitter stream from the protocol
/// stream of the same agent.
const RETRY_STREAM: u64 = 0x5245_5452_595f_524e;

/// Commands a threaded agent accepts.
enum Command {
    Create {
        name: String,
        ttl: u8,
        media: Vec<Media>,
        reply: SyncSender<Result<u64, CreateError>>,
    },
    Withdraw {
        id: u64,
    },
    Publish,
    Stop,
}

/// Slots in an agent's command channel; the worker serves up to this
/// many commands between two steps.
const COMMAND_SLOTS: usize = 16;

/// Longest listen of a threaded agent whose transport has no
/// [`SapTransport::waker`]: the price of a command there is this wait,
/// not `idle_wait`.
pub const UNWAKEABLE_LISTEN: Duration = Duration::from_millis(5);

struct Worker {
    node: u32,
    cmd: SyncSender<Command>,
    /// Cuts the agent's listen short after a command went in.
    waker: Option<Waker>,
    snapshots: SnapshotHandle,
    thread: Option<std::thread::JoinHandle<AgentExit>>,
}

impl Worker {
    /// Queue a command and wake the agent to serve it.
    fn send(&self, cmd: Command) -> Result<(), SendError<Command>> {
        self.cmd.send(cmd)?;
        if let Some(wake) = &self.waker {
            wake();
        }
        Ok(())
    }
}

/// A set of agent threads, one per driver, plus their command channels.
///
/// Dropping the runtime without [`Runtime::shutdown`] detaches the
/// threads' command channels, which stops them on their next loop turn.
pub struct Runtime {
    workers: Vec<Worker>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("agents", &self.workers.len())
            .finish()
    }
}

impl Runtime {
    /// Spawn one thread per driver.  Thread `i` serves drivers[i].  A
    /// command wakes its agent through the transport's
    /// [`SapTransport::waker`], so it is served within a loop turn, not
    /// an `idle_wait`; an agent whose transport has none listens for at
    /// most [`UNWAKEABLE_LISTEN`] at a time instead.
    pub fn spawn<T>(drivers: Vec<AgentDriver<T>>) -> io::Result<Runtime>
    where
        T: SapTransport + 'static,
    {
        let mut workers = Vec::with_capacity(drivers.len());
        for mut driver in drivers {
            let node = driver.node;
            let snapshots = driver.snapshot_handle();
            let waker = driver.transport.waker();
            if waker.is_none() {
                driver.cfg.idle_wait = driver.cfg.idle_wait.min(UNWAKEABLE_LISTEN);
            }
            let wakeable = waker.is_some();
            let (cmd_tx, cmd_rx) = sync_channel::<Command>(COMMAND_SLOTS);
            let spawned = std::thread::Builder::new()
                .name(format!("sd-agent-{node}"))
                .spawn(move || worker_loop(driver, &cmd_rx, wakeable))
                .map(|t| Worker {
                    node,
                    cmd: cmd_tx,
                    waker,
                    snapshots,
                    thread: Some(t),
                });
            match spawned {
                Ok(w) => workers.push(w),
                Err(e) => {
                    // Stop what already started before surfacing.
                    let _ = Runtime { workers }.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(Runtime { workers })
    }

    /// Number of agent threads.
    pub fn agents(&self) -> usize {
        self.workers.len()
    }

    fn worker(&self, agent: usize) -> &Worker {
        &self.workers[agent]
    }

    /// The snapshot handle of agent `agent` (cloneable; hand to readers).
    pub fn snapshot_handle(&self, agent: usize) -> SnapshotHandle {
        self.worker(agent).snapshots.clone()
    }

    /// Create a session on a running agent (blocking round-trip).
    pub fn create_session(
        &self,
        agent: usize,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.worker(agent)
            .send(Command::Create {
                name: name.to_string(),
                ttl,
                media,
                reply: reply_tx,
            })
            .map_err(|_| CreateError::AgentNotRunning)?;
        reply_rx.recv().unwrap_or(Err(CreateError::AgentNotRunning))
    }

    /// Withdraw a session on a running agent (fire and forget).
    pub fn withdraw(&self, agent: usize, id: u64) {
        let _ = self.worker(agent).send(Command::Withdraw { id });
    }

    /// Ask an agent to publish a snapshot whether or not one is due.
    pub fn publish_now(&self, agent: usize) {
        let _ = self.worker(agent).send(Command::Publish);
    }

    /// Stop every agent and collect their exit reports, node order.
    pub fn shutdown(mut self) -> Vec<AgentExit> {
        for w in &self.workers {
            let _ = w.send(Command::Stop);
        }
        let mut exits = Vec::with_capacity(self.workers.len());
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                match t.join() {
                    Ok(exit) => exits.push(exit),
                    Err(_) => exits.push(AgentExit {
                        node: w.node,
                        cached_sessions: 0,
                        directory_telemetry: String::new(),
                        runtime_telemetry: String::new(),
                        flight_dump: String::new(),
                        snapshot_stats: SnapshotStats::default(),
                        error: Some("agent thread panicked".to_string()),
                    }),
                }
            }
        }
        exits
    }
}

/// The worker thread body: serve every queued command, pump the driver
/// one step, absorb transient transport errors under the retry policy,
/// report.  `wakeable`: every command comes with a wake of the
/// transport (counted in `runtime.command_wakes`).
fn worker_loop<T: SapTransport>(
    mut driver: AgentDriver<T>,
    cmd_rx: &Receiver<Command>,
    wakeable: bool,
) -> AgentExit {
    let mut consecutive: u32 = 0;
    let mut failing_since: Option<SimTime> = None;
    let error = 'pump: loop {
        // Every command that is waiting, not one: a client that sends
        // faster than packets arrive must not fill the channel while
        // the worker listens.  At most a channel's worth per turn, so
        // timers and packets keep their turn too.
        let mut served = Ok(());
        for _ in 0..COMMAND_SLOTS {
            let cmd = match cmd_rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Disconnected) => break 'pump None,
                Err(TryRecvError::Empty) => break,
            };
            driver
                .telemetry
                .inc_by(driver.c_command_wakes, u64::from(wakeable));
            served = match cmd {
                Command::Stop => break 'pump None,
                Command::Create {
                    name,
                    ttl,
                    media,
                    reply,
                } => {
                    let _ = reply.send(driver.create_session(&name, ttl, media));
                    Ok(())
                }
                Command::Withdraw { id } => driver.withdraw_session(id),
                Command::Publish => {
                    driver.publish_now();
                    Ok(())
                }
            };
            driver.telemetry.inc(driver.c_commands);
            if served.is_err() {
                break;
            }
        }
        match served.and_then(|()| driver.step()) {
            Ok(()) => {
                consecutive = 0;
                failing_since = None;
            }
            Err(e) => {
                let since = *failing_since.get_or_insert_with(|| driver.clock.now());
                match driver.absorb_failure(consecutive, since) {
                    Some(pause) => std::thread::sleep(pause),
                    None => break Some(e.to_string()),
                }
                consecutive += 1;
            }
        }
    };
    // One last snapshot so readers see the final state.
    driver.publish_now();
    driver.into_exit(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusEndpoint, LoopbackBus};
    use crate::clock::WallClock;
    use sdalloc_core::{AddrSpace, InformedRandomAllocator};
    use sdalloc_sap::wire::msg_id_hash;
    use sdalloc_sap::{Origin, SapPacket, SapSocket, SessionDescription};
    use sdalloc_sim::SimDuration;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn media() -> Vec<Media> {
        vec![Media {
            kind: "audio".into(),
            port: 5004,
            proto: "RTP/AVP".into(),
            format: 0,
        }]
    }

    fn driver<T: SapTransport>(host: u8, seed: u64, transport: T) -> AgentDriver<T> {
        driver_listening(Duration::from_millis(20), host, seed, transport)
    }

    /// A driver whose idle listen lasts `idle_wait`.
    fn driver_listening<T: SapTransport>(
        idle_wait: Duration,
        host: u8,
        seed: u64,
        transport: T,
    ) -> AgentDriver<T> {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(127, 0, 0, host));
        cfg.space = AddrSpace::abstract_space(64);
        let knobs = DriverConfig {
            idle_wait,
            ..DriverConfig::default()
        };
        AgentDriver::new(
            0,
            seed,
            cfg,
            Box::new(InformedRandomAllocator),
            transport,
            Arc::new(WallClock::new()),
            knobs,
        )
    }

    /// Value of counter `name` in a telemetry snapshot (0 if absent).
    fn counter(json: &str, name: &str) -> u64 {
        let needle = format!("\"{name}\": ");
        let Some(at) = json.find(&needle) else {
            return 0;
        };
        json[at + needle.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|digits| digits.parse().ok())
            .unwrap_or(0)
    }

    /// A transport that fails its first `failures` operations with a
    /// transient error, then behaves as an idle (packet-less) link that
    /// nothing can wake.
    struct FlakyTransport {
        failures: Arc<AtomicUsize>,
    }

    impl FlakyTransport {
        fn trip(&self) -> io::Result<()> {
            self.failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .map_or(Ok(()), |_| {
                    Err(io::Error::other("injected transport fault"))
                })
        }
    }

    impl SapTransport for FlakyTransport {
        fn send(&self, _pkt: &SapPacket) -> io::Result<usize> {
            self.trip()?;
            Ok(0)
        }

        fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
            self.trip()?;
            std::thread::sleep(timeout);
            Ok(None)
        }
    }

    /// A driver over a link with `failures` faults left, plus a view of
    /// that budget.
    fn flaky(failures: usize, seed: u64) -> (AgentDriver<FlakyTransport>, Arc<AtomicUsize>) {
        let left = Arc::new(AtomicUsize::new(failures));
        let transport = FlakyTransport {
            failures: Arc::clone(&left),
        };
        (driver(8, seed, transport), left)
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..2_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("timed out waiting for {what}");
    }

    /// Block until the agent thread has exited on its own: from then on
    /// its command channel answers `AgentNotRunning`.
    fn wait_until_dead(rt: &Runtime) {
        wait_for("the agent to give up", || {
            rt.create_session(0, "probe", 1, media()) == Err(CreateError::AgentNotRunning)
        });
    }

    #[test]
    fn agent_dies_on_first_fault_without_retry() {
        let policy = RetryPolicy {
            max_consecutive: 0,
            ..RetryPolicy::default()
        };
        let (d, _) = flaky(usize::MAX, 7);
        let rt = Runtime::spawn(vec![d.with_retry_policy(policy)]).unwrap();
        wait_until_dead(&rt);
        // A dead agent says so instead of claiming the space is full.
        assert_eq!(
            rt.create_session(0, "late", 1, media()),
            Err(CreateError::AgentNotRunning)
        );
        let exit = rt.shutdown().remove(0);
        let msg = exit
            .error
            .expect("max_consecutive: 0 dies on the first error");
        assert!(msg.contains("injected"), "error surfaced verbatim: {msg}");
        assert_eq!(counter(&exit.runtime_telemetry, "runtime.retries"), 0);
        assert_eq!(
            counter(&exit.runtime_telemetry, "runtime.terminal_failures"),
            1
        );
    }

    #[test]
    fn agent_survives_transient_faults_with_retry() {
        // Five consecutive failures, then a healthy link: well inside
        // the default policy's tolerance of eight.
        let (d, left) = flaky(5, 8);
        let rt = Runtime::spawn(vec![d]).unwrap();
        wait_for("the faults to be absorbed", || {
            left.load(Ordering::SeqCst) == 0
        });
        let id = rt
            .create_session(0, "resilient", 1, media())
            .expect("agent still serving commands after transient faults");
        assert!(id >= 1);
        let exit = rt.shutdown().remove(0);
        assert_eq!(exit.error, None, "pump must not have died");
        assert_eq!(counter(&exit.runtime_telemetry, "runtime.retries"), 5);
        assert_eq!(
            counter(&exit.runtime_telemetry, "runtime.terminal_failures"),
            0
        );
        // The driver's counters live in its own telemetry: the
        // directory's stays what the simulator's would be.
        assert!(
            !exit.directory_telemetry.contains("retries")
                && !exit.directory_telemetry.contains("terminal_failures"),
            "{}",
            exit.directory_telemetry
        );
    }

    #[test]
    fn agent_gives_up_after_persistent_faults() {
        // An always-failing link exhausts max_consecutive and surfaces
        // the terminal error.
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            max_consecutive: 3,
            ..RetryPolicy::default()
        };
        let (d, _) = flaky(usize::MAX, 9);
        let rt = Runtime::spawn(vec![d.with_retry_policy(policy)]).unwrap();
        wait_until_dead(&rt);
        let exit = rt.shutdown().remove(0);
        let msg = exit.error.expect("persistent failure must terminate");
        assert!(msg.contains("injected"), "error surfaced verbatim: {msg}");
        assert_eq!(counter(&exit.runtime_telemetry, "runtime.retries"), 3);
        assert_eq!(
            counter(&exit.runtime_telemetry, "runtime.terminal_failures"),
            1
        );
        // The exit dump is the post-mortem: the retries and the
        // terminal failure sit in the flight recorder.
        let dump = exit.flight_dump;
        assert!(dump.contains("\"flight_recorder\": true"), "{dump}");
        assert!(dump.contains("agent pump terminated"), "{dump}");
        assert!(dump.contains("\"name\": \"retry\""), "{dump}");
        assert!(dump.contains("\"name\": \"terminal_failure\""), "{dump}");
    }

    #[test]
    fn agent_hits_retry_elapsed_budget() {
        // A permanently dead transport with an effectively unlimited
        // attempt budget still terminates once the elapsed-time budget
        // for the failure run is spent.
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            max_consecutive: u32::MAX,
            max_elapsed: Some(Duration::from_millis(25)),
        };
        let (d, _) = flaky(usize::MAX, 10);
        let rt = Runtime::spawn(vec![d.with_retry_policy(policy)]).unwrap();
        wait_until_dead(&rt);
        let exit = rt.shutdown().remove(0);
        assert!(exit.error.is_some(), "elapsed budget must terminate");
        assert!(counter(&exit.runtime_telemetry, "runtime.retries") >= 1);
        assert!(
            exit.flight_dump.contains("\"name\": \"terminal_failure\""),
            "{}",
            exit.flight_dump
        );
    }

    /// A third party's session, as the wire carries it.
    fn remote(version: u64) -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 7,
                version,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "peer".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 9),
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        }
    }

    fn announce(desc: &SessionDescription) -> SapPacket {
        let payload = desc.format();
        SapPacket::announce(desc.origin.address, msg_id_hash(&payload), payload)
    }

    /// One agent on a quiet loopback bus under a virtual clock, plus the
    /// endpoint a test feeds it through.
    fn quiet_agent(
        cache_timeout: SimDuration,
    ) -> (AgentDriver<BusEndpoint>, Arc<VirtualClock>, BusEndpoint) {
        let clock = Arc::new(VirtualClock::new());
        let bus = LoopbackBus::new(Arc::clone(&clock) as Arc<dyn Clock>, 5, FaultPlan::new());
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(64);
        cfg.cache_timeout = cache_timeout;
        let agent = AgentDriver::new(
            0,
            5,
            cfg,
            Box::new(InformedRandomAllocator),
            bus.endpoint(),
            Arc::clone(&clock) as Arc<dyn Clock>,
            DriverConfig::default(),
        );
        (agent, clock, bus.endpoint())
    }

    #[test]
    fn timer_driven_expiry_reaches_readers_of_a_quiet_agent() {
        // One cached session, then silence: the only thing that ever
        // changes the cache again is its own expiry timer.
        let (mut agent, clock, feeder) = quiet_agent(SimDuration::from_secs(100));
        let mut reader = agent.snapshot_handle().reader();
        feeder.send(&announce(&remote(1))).unwrap();
        agent
            .run_deterministic_until(&clock, SimTime::from_secs(1))
            .unwrap();
        agent.publish_now();
        assert_eq!(reader.load().len(), 1);
        assert!(reader.load().group_in_use(remote(1).group));

        agent
            .run_deterministic_until(&clock, SimTime::from_secs(200))
            .unwrap();
        assert_eq!(agent.directory().cached_sessions(), 0, "entry expired");
        let snap = reader.load();
        assert_eq!(snap.len(), 0, "readers still answer for an expired session");
        assert!(!snap.group_in_use(remote(1).group));
    }

    #[test]
    fn packets_that_change_no_row_do_not_republish() {
        let (mut agent, clock, feeder) = quiet_agent(SimDuration::from_hours(1));
        feeder.send(&announce(&remote(2))).unwrap();
        agent
            .run_deterministic_until(&clock, SimTime::from_secs(1))
            .unwrap();
        // Two publishes: the second leaves the first as the spare.
        agent.publish_now();
        agent.publish_now();
        let published = agent.snapshot_stats().published;
        // A stale version and an unparseable payload, well past the
        // cadence interval: heard, counted, but no row moved.
        clock.advance_to(SimTime::from_secs(10));
        feeder.send(&announce(&remote(1))).unwrap();
        feeder
            .send(&SapPacket::announce(
                Ipv4Addr::new(10, 0, 0, 3),
                1,
                "not sdp".into(),
            ))
            .unwrap();
        agent.step().unwrap();
        agent.step().unwrap();
        assert_eq!(counter(&agent.runtime_telemetry_json(), "runtime.rx"), 3);
        assert_eq!(agent.snapshot_stats().published, published);
        // A refresh moves `last_heard`, which rows carry: that publishes.
        feeder.send(&announce(&remote(2))).unwrap();
        agent.step().unwrap();
        agent.step().unwrap();
        assert_eq!(agent.snapshot_stats().published, published + 1);
        let telemetry = agent.runtime_telemetry_json();
        assert_eq!(counter(&telemetry, "runtime.snapshots"), published + 1);
        assert_eq!(counter(&telemetry, "runtime.snapshot_replays"), 1);
        assert_eq!(
            counter(&telemetry, "runtime.snapshot_rows_changed"),
            3,
            "one row per capture, then the one refreshed row"
        );
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let mut rng = SimRng::new(10);
        for attempt in 0..64 {
            let d = policy.backoff(attempt, &mut rng);
            let ceiling = policy
                .base
                .saturating_mul(2u32.saturating_pow(attempt.min(20)))
                .min(policy.cap);
            assert!(d < ceiling.max(Duration::from_nanos(1)));
        }
        // Jitter: two agents with different seeds diverge.
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(12);
        let diverged = (0..8).any(|n| policy.backoff(n, &mut a) != policy.backoff(n, &mut b));
        assert!(diverged, "backoff must be jittered per-agent");
    }

    /// Multicast may be unavailable in sandboxes; skip gracefully.
    fn try_socket(port: u16) -> Option<SapSocket> {
        match SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), port, 1) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("skipping multicast test: {e}");
                None
            }
        }
    }

    #[test]
    fn two_agents_over_loopback() {
        let Some(sock_a) = try_socket(29876) else {
            return;
        };
        let Some(sock_b) = try_socket(29876) else {
            eprintln!("(cannot open a second socket: no SO_REUSEADDR?)");
            return;
        };
        let mut a = driver(1, 1, sock_a);
        let mut b = driver(2, 2, sock_b);
        a.create_session("from-a", 1, media()).unwrap();
        for _ in 0..50 {
            a.step().unwrap();
            b.step().unwrap();
            if b.directory().cached_sessions() > 0 {
                break;
            }
        }
        if b.directory().cached_sessions() == 0 {
            eprintln!("skipping assertion: multicast delivery unavailable");
            return;
        }
        assert_eq!(b.directory().cached_sessions(), 1);
    }

    /// One agent alone on a loopback bus (nothing ever arrives), whose
    /// idle listen lasts five seconds.
    fn silent_agent(seed: u64) -> Runtime {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let bus = LoopbackBus::new(clock, seed, FaultPlan::new());
        let agent = driver_listening(Duration::from_secs(5), 9, seed, bus.endpoint());
        Runtime::spawn(vec![agent]).unwrap()
    }

    #[test]
    fn spawned_agent_responds_to_commands() {
        let rt = silent_agent(3);
        // Let the worker settle into its five-second listen.
        std::thread::sleep(Duration::from_millis(50));
        // The best of three, so that one scheduling hiccup on a loaded
        // host does not pass for a timeout; a timeout would be 5 s each.
        let mut ids = Vec::new();
        let rtt = (0..3)
            .map(|i| {
                let asked = std::time::Instant::now();
                ids.push(
                    rt.create_session(0, &format!("bg-{i}"), 1, media())
                        .unwrap(),
                );
                asked.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            rtt < Duration::from_millis(50),
            "the command woke the listen, not its timeout: {rtt:?}"
        );
        rt.withdraw(0, ids[0]);
        let exit = rt.shutdown().remove(0);
        assert_eq!(exit.error, None);
        let telemetry = &exit.runtime_telemetry;
        assert!(counter(telemetry, "runtime.tx") >= 1, "{telemetry}");
        assert_eq!(counter(telemetry, "runtime.commands"), 4, "{telemetry}");
        assert_eq!(
            counter(telemetry, "runtime.command_wakes"),
            5,
            "three creates, a withdraw, the stop: {telemetry}"
        );
    }

    #[test]
    fn a_burst_of_commands_does_not_wait_on_packets() {
        // PR 11's livelock: one command per loop turn and a 16-slot
        // channel, so a client faster than the traffic blocked in `send`
        // while the worker slept in `recv`.
        let rt = silent_agent(4);
        let asked = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| (0..64).for_each(|id| rt.withdraw(0, 1_000 + id)));
            s.spawn(|| {
                for i in 0..8 {
                    rt.create_session(0, &format!("burst-{i}"), 1, media())
                        .unwrap();
                }
            });
        });
        let took = asked.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "72 commands took {took:?}"
        );
        let exit = rt.shutdown().remove(0);
        assert_eq!(exit.error, None);
        assert_eq!(counter(&exit.runtime_telemetry, "runtime.commands"), 72);
    }

    #[test]
    fn an_agent_nothing_can_wake_listens_a_few_ms_at_a_time() {
        let transport = FlakyTransport {
            failures: Arc::new(AtomicUsize::new(0)),
        };
        let agent = driver_listening(Duration::from_secs(5), 8, 11, transport);
        let rt = Runtime::spawn(vec![agent]).unwrap();
        let asked = std::time::Instant::now();
        for i in 0..4 {
            rt.create_session(0, &format!("polled-{i}"), 1, media())
                .unwrap();
        }
        let took = asked.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "four commands took {took:?}"
        );
        let exit = rt.shutdown().remove(0);
        assert_eq!(counter(&exit.runtime_telemetry, "runtime.command_wakes"), 0);
    }

    #[test]
    fn spawned_agent_announces_over_a_socket() {
        let Some(sock) = try_socket(29877) else {
            return;
        };
        let rt = Runtime::spawn(vec![driver(9, 3, sock)]).unwrap();
        let id = rt.create_session(0, "bg", 1, media()).unwrap();
        assert!(id >= 1);
        std::thread::sleep(Duration::from_millis(250));
        rt.withdraw(0, id);
        let exit = rt.shutdown().remove(0);
        assert_eq!(exit.error, None);
        let sent = counter(&exit.runtime_telemetry, "runtime.tx");
        assert!(
            sent >= 1,
            "no announcement sent: {}",
            exit.runtime_telemetry
        );
    }
}
