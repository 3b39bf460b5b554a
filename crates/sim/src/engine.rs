//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns a priority queue of timestamped events.  Running
//! the simulator pops events in time order and hands each to a
//! user-supplied handler, which may schedule further events through the
//! [`SimContext`] it receives.  Ties in time are broken by insertion
//! order (FIFO), which keeps runs fully deterministic.
//!
//! The engine is intentionally generic over the event payload type `E`:
//! each subsystem (SAP announcements, allocation experiments, the
//! request–response protocol) defines its own event enum rather than
//! sharing one giant variant soup.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A scheduled event: payload plus its due time and a tie-break sequence.
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // and among equal times the lowest sequence number (FIFO).
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Event queue plus clock — the mutable state a handler may touch.
pub struct SimContext<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    processed: u64,
    stopped: bool,
}

impl<E> SimContext<E> {
    fn new() -> Self {
        SimContext {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            processed: 0,
            stopped: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event
    /// simulation; it panics rather than silently reordering history.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            due: at,
            seq,
            payload,
        });
    }

    /// Schedule `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) {
        self.schedule_at(self.now + after, payload);
    }

    /// Request that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

/// A discrete-event simulator over events of type `E`.
pub struct Simulator<E> {
    ctx: SimContext<E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Create an empty simulator at t = 0.
    pub fn new() -> Self {
        Simulator {
            ctx: SimContext::new(),
        }
    }

    /// Access the context to seed initial events before running.
    pub fn context(&mut self) -> &mut SimContext<E> {
        &mut self.ctx
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Run until the queue is empty or [`SimContext::stop`] is called.
    ///
    /// Returns the number of events processed by this call.
    pub fn run<F>(&mut self, mut handler: F) -> u64
    where
        F: FnMut(&mut SimContext<E>, E),
    {
        self.run_until(SimTime::MAX, &mut handler)
    }

    /// Run until the queue is empty, the handler stops the run, or the
    /// next event would fire after `horizon` (events at exactly `horizon`
    /// are processed; later ones are left queued).
    pub fn run_until<F>(&mut self, horizon: SimTime, handler: &mut F) -> u64
    where
        F: FnMut(&mut SimContext<E>, E),
    {
        self.run_until_observed(horizon, handler, &mut |_, _, _: &E| {})
    }

    /// Like [`Self::run`], additionally calling `observer` with
    /// `(time, dispatch index, payload)` immediately before each event
    /// is handled.  The observer sees the exact dispatch order — the
    /// instrumentation hook behind event-trace regression tests and the
    /// protocol drivers the model checker compares against.
    pub fn run_observed<F, O>(&mut self, mut handler: F, mut observer: O) -> u64
    where
        F: FnMut(&mut SimContext<E>, E),
        O: FnMut(SimTime, u64, &E),
    {
        self.run_until_observed(SimTime::MAX, &mut handler, &mut observer)
    }

    /// The fully general run loop: bounded horizon plus dispatch
    /// observer.  All other run methods delegate here.
    pub fn run_until_observed<F, O>(
        &mut self,
        horizon: SimTime,
        handler: &mut F,
        observer: &mut O,
    ) -> u64
    where
        F: FnMut(&mut SimContext<E>, E),
        O: FnMut(SimTime, u64, &E),
    {
        let start = self.ctx.processed;
        self.ctx.stopped = false;
        while let Some(head) = self.ctx.queue.peek() {
            if head.due > horizon {
                break;
            }
            // The peek above guarantees the queue is non-empty, so the
            // `else` arm can never run; it exists to keep this loop
            // panic-free without an `expect`.
            let Some(ev) = self.ctx.queue.pop() else {
                break;
            };
            debug_assert!(ev.due >= self.ctx.now, "time went backwards");
            self.ctx.now = ev.due;
            observer(ev.due, self.ctx.processed, &ev.payload);
            self.ctx.processed += 1;
            handler(&mut self.ctx, ev.payload);
            if self.ctx.stopped {
                break;
            }
        }
        // Advancing the clock to the horizon when we exhausted all events
        // lets callers compose consecutive bounded runs.
        if self.ctx.queue.is_empty() && horizon != SimTime::MAX && self.ctx.now < horizon {
            self.ctx.now = horizon;
        }
        self.ctx.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut sim = Simulator::new();
        sim.context().schedule_at(SimTime::from_secs(3), 3u32);
        sim.context().schedule_at(SimTime::from_secs(1), 1u32);
        sim.context().schedule_at(SimTime::from_secs(2), 2u32);
        let mut seen = Vec::new();
        sim.run(|ctx, e| {
            seen.push((ctx.now().as_nanos() / 1_000_000_000, e));
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut sim = Simulator::new();
        for i in 0..100u32 {
            sim.context().schedule_at(SimTime::from_secs(5), i);
        }
        let mut seen = Vec::new();
        sim.run(|_, e| seen.push(e));
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut sim = Simulator::new();
        sim.context().schedule_at(SimTime::ZERO, 0u32);
        let mut count = 0;
        sim.run(|ctx, e| {
            count += 1;
            if e < 10 {
                ctx.schedule_after(SimDuration::from_secs(1), e + 1);
            }
        });
        assert_eq!(count, 11);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn stop_halts_run() {
        let mut sim = Simulator::new();
        for i in 0..10u32 {
            sim.context().schedule_at(SimTime::from_secs(i as u64), i);
        }
        let mut seen = Vec::new();
        sim.run(|ctx, e| {
            seen.push(e);
            if e == 4 {
                ctx.stop();
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.context().pending(), 5);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new();
        for i in 0..10u64 {
            sim.context().schedule_at(SimTime::from_secs(i), i);
        }
        let mut seen = Vec::new();
        let n = sim.run_until(SimTime::from_secs(4), &mut |_, e: u64| seen.push(e));
        assert_eq!(n, 5); // events at t=0..=4 inclusive
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Continue to completion.
        sim.run(|_, e| seen.push(e));
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn empty_run_until_advances_clock() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.run_until(SimTime::from_secs(100), &mut |_, _| {});
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new();
        sim.context().schedule_at(SimTime::from_secs(5), ());
        sim.run(|ctx, _| {
            ctx.schedule_at(SimTime::from_secs(1), ());
        });
    }

    #[test]
    fn observer_sees_dispatch_order() {
        let mut sim = Simulator::new();
        sim.context().schedule_at(SimTime::from_secs(2), 20u32);
        sim.context().schedule_at(SimTime::from_secs(1), 10u32);
        let mut observed = Vec::new();
        let mut handled = Vec::new();
        sim.run_observed(
            |ctx, e| {
                handled.push(e);
                if e == 10 {
                    ctx.schedule_after(SimDuration::from_secs(5), 30u32);
                }
            },
            |now, idx, e: &u32| observed.push((now.as_nanos() / 1_000_000_000, idx, *e)),
        );
        assert_eq!(handled, vec![10, 20, 30]);
        assert_eq!(observed, vec![(1, 0, 10), (2, 1, 20), (6, 2, 30)]);
    }

    #[test]
    fn processed_counter() {
        let mut sim = Simulator::new();
        for i in 0..7u32 {
            sim.context().schedule_at(SimTime::from_secs(i as u64), i);
        }
        let n = sim.run(|_, _| {});
        assert_eq!(n, 7);
        assert_eq!(sim.context().processed(), 7);
    }
}
