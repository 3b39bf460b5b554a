//! In-process loopback bus: a multicast scope made of queues.
//!
//! Every [`BusEndpoint`] implements [`SapTransport`], so the same
//! [`crate::AgentDriver`] runs unchanged over a real UDP multicast
//! socket or over this bus.  A send fans the packet out to every *other*
//! endpoint (multicast semantics minus self-loopback, matching the
//! discrete-event testbed, whose directories never hear themselves).
//!
//! The bus consults a [`FaultPlan`] per (packet, link): partition
//! windows, burst loss, crashed recipients, and corruption
//! ([`corrupt_in_flight`], the step `Testbed` shares), so chaos
//! scenarios written against the simulator run unmodified against the
//! threaded runtime.  Packets mangled beyond recognition still "hit the
//! socket": the receiving endpoint accumulates a pre-decode drop count
//! which the driver drains into [`SessionDirectory::note_rx_dropped`]
//! via [`SapTransport::take_rx_predecode_drops`].
//!
//! An optional byte trace records every emission through
//! [`trace_emission`], as `Testbed::enable_packet_trace` does, which is
//! what the differential test fingerprints.  With a single agent (no
//! cross-traffic, no shared-RNG interleaving) the bus is fully
//! deterministic under a [`crate::VirtualClock`]; with many threads,
//! fault decisions stay seed-driven but their interleaving follows the
//! scheduler.
//!
//! [`SessionDirectory::note_rx_dropped`]: sdalloc_sap::SessionDirectory::note_rx_dropped

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sdalloc_sap::net::{SapTransport, Waker};
use sdalloc_sap::wire::{corrupt_in_flight, trace_emission, SapPacket};
use sdalloc_sim::{FaultPlan, SimRng};

use crate::clock::Clock;

/// Per-endpoint queue bound: a real socket's receive buffer is finite,
/// so the bus's is too; overflow drops the newest packet (accounted in
/// [`BusStats::dropped_full`]).
const QUEUE_CAPACITY: usize = 4096;

/// Counters the bus keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusStats {
    /// Packets handed to `send`.
    pub sent: u64,
    /// (packet, link) deliveries that reached a queue.
    pub delivered: u64,
    /// Deliveries suppressed by partitions or burst loss.
    pub dropped_loss: u64,
    /// Deliveries suppressed because the recipient (or sender) was
    /// inside a crash window.
    pub dropped_down: u64,
    /// Deliveries mangled past decoding (counted at the receiver too,
    /// as pre-decode drops).
    pub dropped_corrupt: u64,
    /// Deliveries refused by a full endpoint queue.
    pub dropped_full: u64,
}

struct Endpoint {
    node: usize,
    queue: Mutex<VecDeque<SapPacket>>,
    ready: Condvar,
    predecode_drops: AtomicU64,
    /// A [`SapTransport::waker`] call not yet seen by a blocking `recv`.
    /// Written and read under the queue lock, as `predecode_drops` is.
    woken: AtomicBool,
}

struct BusShared {
    clock: Arc<dyn Clock>,
    faults: FaultPlan,
    rng: Mutex<SimRng>,
    endpoints: Mutex<Vec<Arc<Endpoint>>>,
    trace: Mutex<Option<Vec<u8>>>,
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_down: AtomicU64,
    dropped_corrupt: AtomicU64,
    dropped_full: AtomicU64,
}

/// The bus itself; clone-free — endpoints keep it alive.
pub struct LoopbackBus {
    shared: Arc<BusShared>,
}

impl std::fmt::Debug for LoopbackBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackBus")
            .field("endpoints", &self.shared.endpoints.lock().map(|e| e.len()))
            .finish()
    }
}

impl LoopbackBus {
    /// A bus on `clock` with fault decisions drawn from `seed` under
    /// `faults` (use `FaultPlan::new()` for a clean network).
    pub fn new(clock: Arc<dyn Clock>, seed: u64, faults: FaultPlan) -> LoopbackBus {
        LoopbackBus {
            shared: Arc::new(BusShared {
                clock,
                faults,
                rng: Mutex::new(SimRng::new(seed)),
                endpoints: Mutex::new(Vec::new()),
                trace: Mutex::new(None),
                sent: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                dropped_loss: AtomicU64::new(0),
                dropped_down: AtomicU64::new(0),
                dropped_corrupt: AtomicU64::new(0),
                dropped_full: AtomicU64::new(0),
            }),
        }
    }

    /// Register the next endpoint; node indices are issued densely in
    /// call order and must line up with the [`FaultPlan`]'s node ids.
    pub fn endpoint(&self) -> BusEndpoint {
        let mut endpoints = lock(&self.shared.endpoints);
        let ep = Arc::new(Endpoint {
            node: endpoints.len(),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            predecode_drops: AtomicU64::new(0),
            woken: AtomicBool::new(false),
        });
        endpoints.push(Arc::clone(&ep));
        BusEndpoint {
            shared: Arc::clone(&self.shared),
            me: ep,
        }
    }

    /// Start recording emissions (format documented on the module).
    pub fn enable_packet_trace(&self) {
        *lock(&self.shared.trace) = Some(Vec::new());
    }

    /// Take the trace recorded so far, leaving recording enabled.
    pub fn take_packet_trace(&self) -> Vec<u8> {
        lock(&self.shared.trace)
            .replace(Vec::new())
            .unwrap_or_default()
    }

    /// Counters so far.
    pub fn stats(&self) -> BusStats {
        let s = &self.shared;
        BusStats {
            sent: s.sent.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
            dropped_loss: s.dropped_loss.load(Ordering::Relaxed),
            dropped_down: s.dropped_down.load(Ordering::Relaxed),
            dropped_corrupt: s.dropped_corrupt.load(Ordering::Relaxed),
            dropped_full: s.dropped_full.load(Ordering::Relaxed),
        }
    }
}

/// Recover from mutex poisoning instead of propagating the panic: the
/// bus's invariants are per-operation (queues are just packet lists), so
/// a panicked peer thread must not take the whole runtime down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One agent's attachment to the bus.
pub struct BusEndpoint {
    shared: Arc<BusShared>,
    me: Arc<Endpoint>,
}

impl std::fmt::Debug for BusEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusEndpoint")
            .field("node", &self.me.node)
            .finish()
    }
}

impl BusEndpoint {
    /// This endpoint's dense node index on the bus.
    pub fn node(&self) -> usize {
        self.me.node
    }
}

impl SapTransport for BusEndpoint {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        let shared = &self.shared;
        let now = shared.clock.now();
        let len = pkt.encode().len();
        trace_emission(&mut lock(&shared.trace), now, self.me.node, pkt);
        shared.sent.fetch_add(1, Ordering::Relaxed);
        if !shared.faults.node_up(now, self.me.node) {
            // A crashed sender's packets go nowhere (the driver should
            // not even be stepping it; this is the backstop).
            shared.dropped_down.fetch_add(1, Ordering::Relaxed);
            return Ok(len);
        }
        let endpoints = lock(&shared.endpoints);
        let mut rng = lock(&shared.rng);
        for ep in endpoints.iter() {
            if ep.node == self.me.node {
                continue; // no self-loopback, like the testbed
            }
            if !shared.faults.delivers(now, self.me.node, ep.node) {
                shared.dropped_loss.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if !shared.faults.node_up(now, ep.node) {
                shared.dropped_down.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let extra = shared.faults.extra_drop(now);
            if extra > 0.0 && rng.chance(extra) {
                shared.dropped_loss.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some(delivered) = corrupt_in_flight(pkt, &shared.faults, now, &mut rng) else {
                // Dead before decode: account it at the receiver and
                // wake it so the drop is processed promptly.  Counted
                // under the queue lock, like a push, so a receiver
                // between its check and its wait cannot miss it.
                let queue = lock(&ep.queue);
                ep.predecode_drops.fetch_add(1, Ordering::Relaxed);
                drop(queue);
                shared.dropped_corrupt.fetch_add(1, Ordering::Relaxed);
                ep.ready.notify_one();
                continue;
            };
            let mut queue = lock(&ep.queue);
            if queue.len() >= QUEUE_CAPACITY {
                shared.dropped_full.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            queue.push_back(delivered);
            drop(queue);
            ep.ready.notify_one();
            shared.delivered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(len)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        let mut queue = lock(&self.me.queue);
        if let Some(pkt) = queue.pop_front() {
            return Ok(Some(pkt));
        }
        if timeout.is_zero() {
            return Ok(None);
        }
        let deadline = Instant::now() + timeout;
        loop {
            // A pending pre-decode drop or wake, whenever it landed: let
            // the driver observe it rather than sleep on it.
            if self.me.predecode_drops.load(Ordering::Relaxed) > 0
                || self.me.woken.swap(false, Ordering::Relaxed)
            {
                return Ok(None);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let (guard, _timed_out) = self
                .me
                .ready
                .wait_timeout(queue, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
            if let Some(pkt) = queue.pop_front() {
                return Ok(Some(pkt));
            }
        }
    }

    fn take_rx_predecode_drops(&self) -> u64 {
        self.me.predecode_drops.swap(0, Ordering::Relaxed)
    }

    fn waker(&self) -> Option<Waker> {
        let me = Arc::clone(&self.me);
        Some(Box::new(move || {
            // Flagged under the queue lock, like a push, so a receiver
            // between its check and its wait cannot miss it.
            let queue = lock(&me.queue);
            me.woken.store(true, Ordering::Relaxed);
            drop(queue);
            me.ready.notify_one();
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use sdalloc_sim::{CorruptionMode, SimTime};
    use std::net::Ipv4Addr;

    fn pkt(id: u16) -> SapPacket {
        SapPacket::announce(
            Ipv4Addr::new(10, 0, 0, 9),
            id,
            format!(
                "v=0\r\no=- {id} 1 IN IP4 10.0.0.9\r\ns=bus\r\nc=IN IP4 224.2.0.1/127\r\nt=0 0\r\n"
            ),
        )
    }

    #[test]
    fn fans_out_to_all_but_sender() {
        let clock = Arc::new(VirtualClock::new());
        let bus = LoopbackBus::new(clock, 1, FaultPlan::new());
        let a = bus.endpoint();
        let b = bus.endpoint();
        let c = bus.endpoint();
        a.send(&pkt(7)).unwrap();
        assert!(a.recv(Duration::ZERO).unwrap().is_none(), "no self-loop");
        assert_eq!(b.recv(Duration::ZERO).unwrap().unwrap().msg_id_hash, 7);
        assert_eq!(c.recv(Duration::ZERO).unwrap().unwrap().msg_id_hash, 7);
        assert_eq!(bus.stats().delivered, 2);
    }

    #[test]
    fn recv_blocks_until_send_or_timeout() {
        let clock = Arc::new(VirtualClock::new());
        let bus = LoopbackBus::new(clock, 2, FaultPlan::new());
        let a = bus.endpoint();
        let b = bus.endpoint();
        let start = Instant::now();
        assert!(b.recv(Duration::from_millis(30)).unwrap().is_none());
        assert!(start.elapsed() >= Duration::from_millis(25), "waited");
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(&pkt(9)).unwrap();
        });
        let got = b.recv(Duration::from_secs(5)).unwrap();
        t.join().unwrap();
        assert_eq!(got.unwrap().msg_id_hash, 9, "woken by the send");
    }

    #[test]
    fn a_wake_cuts_the_next_blocking_recv_short_and_only_that_one() {
        let clock = Arc::new(VirtualClock::new());
        let bus = LoopbackBus::new(clock, 6, FaultPlan::new());
        let a = bus.endpoint();
        let wake = a.waker().expect("the bus can be woken");
        // Before the wait: kept, not lost; a non-blocking recv leaves it.
        wake();
        assert!(a.recv(Duration::ZERO).unwrap().is_none());
        let start = Instant::now();
        assert!(a.recv(Duration::from_secs(5)).unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1), "lost wake-up");
        // Consumed: the next recv waits its budget out.
        let start = Instant::now();
        assert!(a.recv(Duration::from_millis(30)).unwrap().is_none());
        assert!(start.elapsed() >= Duration::from_millis(25), "woken twice");
        // During the wait.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            wake();
        });
        let start = Instant::now();
        assert!(a.recv(Duration::from_secs(5)).unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1), "slept through it");
        t.join().unwrap();
    }

    #[test]
    fn partition_window_cuts_links() {
        let clock = Arc::new(VirtualClock::new());
        let plan = FaultPlan::new().with_partition(
            SimTime::ZERO,
            SimTime::from_secs(10),
            vec![0],
            vec![1],
        );
        let bus = LoopbackBus::new(Arc::clone(&clock) as Arc<dyn Clock>, 3, plan);
        let a = bus.endpoint();
        let b = bus.endpoint();
        a.send(&pkt(1)).unwrap();
        assert!(b.recv(Duration::ZERO).unwrap().is_none(), "partitioned");
        clock.advance_to(SimTime::from_secs(11));
        a.send(&pkt(2)).unwrap();
        assert_eq!(b.recv(Duration::ZERO).unwrap().unwrap().msg_id_hash, 2);
    }

    #[test]
    fn garbage_corruption_surfaces_as_predecode_drops() {
        let clock = Arc::new(VirtualClock::new());
        let plan = FaultPlan::new().with_corruption(
            SimTime::ZERO,
            SimTime::from_secs(10),
            1.0,
            CorruptionMode::Garbage,
        );
        let bus = LoopbackBus::new(clock, 4, plan);
        let a = bus.endpoint();
        let b = bus.endpoint();
        a.send(&pkt(5)).unwrap();
        assert!(b.recv(Duration::ZERO).unwrap().is_none());
        // The drop landed before the wait: it must not be slept on.
        let start = Instant::now();
        assert!(b.recv(Duration::from_secs(2)).unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1), "lost wake-up");
        assert_eq!(b.take_rx_predecode_drops(), 1, "drop accounted at receiver");
        assert_eq!(b.take_rx_predecode_drops(), 0, "count resets on read");
        assert_eq!(bus.stats().dropped_corrupt, 1);
    }

    #[test]
    fn trace_records_time_node_bytes() {
        let clock = Arc::new(VirtualClock::new());
        clock.advance_to(SimTime::from_nanos(42));
        let bus = LoopbackBus::new(Arc::clone(&clock) as Arc<dyn Clock>, 5, FaultPlan::new());
        bus.enable_packet_trace();
        let a = bus.endpoint();
        let _b = bus.endpoint();
        let p = pkt(3);
        a.send(&p).unwrap();
        let trace = bus.take_packet_trace();
        let encoded = p.encode();
        assert_eq!(trace.len(), 8 + 1 + encoded.len());
        assert_eq!(&trace[..8], &42u64.to_le_bytes());
        assert_eq!(trace[8], 0, "sender node index");
        assert_eq!(&trace[9..], &encoded[..]);
        assert!(bus.take_packet_trace().is_empty(), "trace drained");
    }
}
