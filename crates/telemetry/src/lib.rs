//! # sdalloc-telemetry — deterministic observability
//!
//! A zero-dependency instrumentation layer shared by every protocol
//! crate in the workspace.  Three pieces:
//!
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms
//!   behind pre-registered integer ids.  The hot increment path is a
//!   branch plus a `Vec` index: no hashing, no allocation, no locks.
//! * [`TraceEvent`] — a fixed-size structured event (sim-time
//!   timestamp, node id, span, name, up to three `u64` arguments, all
//!   keys interned `&'static str`), admitted through a severity +
//!   counter-based sampling filter that costs a single branch when
//!   telemetry is disabled.
//! * [`FlightRecorder`] — a bounded ring of the most recent admitted
//!   events, rendered to JSON post-mortem when a chaos scenario,
//!   differential test or model-checker property fails.
//!
//! **Determinism contract.**  Nothing in this crate reads a wall
//! clock, draws randomness, or iterates a hash map while rendering.
//! Timestamps are caller-supplied simulation nanoseconds, sampling is
//! a deterministic modulo counter, and all JSON output walks vectors
//! in registration order — so for a fixed seed the rendered snapshot
//! is byte-identical across runs (the differential suite in
//! `tests/event_driven.rs` pins this).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-volume diagnostics; subject to sampling.
    Debug,
    /// Normal protocol milestones.
    Info,
    /// Degraded but self-healing conditions.
    Warn,
    /// Terminal or invariant-threatening conditions.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured trace event.  Fixed-size: recording one never
/// allocates.  Unused argument slots hold `("", 0)` and are omitted
/// from JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds (caller-supplied; never wall
    /// clock).
    pub t_nanos: u64,
    /// Severity; also the filter key.
    pub severity: Severity,
    /// Protocol phase the event belongs to (`"allocate"`,
    /// `"announce"`, `"clash"`, `"defend"`, `"cache"`, `"net"`, ...).
    pub span: &'static str,
    /// Event name within the span.
    pub name: &'static str,
    /// Up to three named integer arguments.
    pub args: [(&'static str, u64); 3],
}

impl TraceEvent {
    /// Render as a single-line JSON object.
    fn render_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_ns\": {}, \"sev\": \"{}\", \"span\": \"{}\", \"name\": \"{}\"",
            self.t_nanos,
            self.severity.as_str(),
            self.span,
            self.name
        );
        for (k, v) in self.args {
            if !k.is_empty() {
                let _ = write!(out, ", \"{k}\": {v}");
            }
        }
        out.push('}');
    }
}

/// No argument in this slot.
pub const NO_ARG: (&str, u64) = ("", 0);

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper
/// bounds, with an implicit overflow bucket above the last.
#[derive(Debug, Clone)]
struct Histogram {
    name: &'static str,
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// Name-interned metrics store.  Registration (rare, setup-time) is a
/// linear name scan; increments (hot) are a `Vec` index.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register (or look up) a counter by name.  Idempotent.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name, 0));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Register (or look up) a gauge by name.  Idempotent.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == name) {
            return GaugeId(i as u32);
        }
        self.gauges.push((name, 0));
        GaugeId((self.gauges.len() - 1) as u32)
    }

    /// Register (or look up) a histogram by name with the given
    /// ascending upper bounds.  Idempotent; bounds are fixed by the
    /// first registration.
    pub fn histogram(&mut self, name: &'static str, bounds: &[u64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i as u32);
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        self.histograms.push(Histogram {
            name,
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        });
        HistogramId((self.histograms.len() - 1) as u32)
    }

    /// Add `by` to a counter.  O(1), allocation-free.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if let Some(c) = self.counters.get_mut(id.0 as usize) {
            c.1 += by;
        }
    }

    /// Set a gauge to `value`.  O(1), allocation-free.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        if let Some(g) = self.gauges.get_mut(id.0 as usize) {
            g.1 = value;
        }
    }

    /// Record one sample in a histogram.  O(log buckets),
    /// allocation-free.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if let Some(h) = self.histograms.get_mut(id.0 as usize) {
            h.observe(value);
        }
    }

    /// Current value of a counter (0 if unknown).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters.get(id.0 as usize).map_or(0, |c| c.1)
    }

    /// Current value of a counter looked up by name (0 if unknown).
    pub fn counter_by_name(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |c| c.1)
    }

    /// Current value of a gauge looked up by name (0 if unknown).
    pub fn gauge_by_name(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |g| g.1)
    }

    /// Fold another registry into this one: counters and histogram
    /// buckets add, gauges take the other's value.  Names absent here
    /// are registered in the other's order, so merging is
    /// deterministic.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for &(name, v) in &other.counters {
            let id = self.counter(name);
            self.inc(id, v);
        }
        for &(name, v) in &other.gauges {
            let id = self.gauge(name);
            self.set(id, v);
        }
        for h in &other.histograms {
            let id = self.histogram(h.name, &h.bounds);
            if let Some(mine) = self.histograms.get_mut(id.0 as usize) {
                if mine.bounds == h.bounds {
                    for (m, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *m += o;
                    }
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                }
            }
        }
    }

    /// Render as a JSON object fragment (three keys: `counters`,
    /// `gauges`, `histograms`), indented by `pad` spaces.  Walks
    /// registration order — deterministic for a fixed code path.
    pub fn render_json(&self, pad: usize) -> String {
        let p = " ".repeat(pad);
        let mut s = String::new();
        let _ = write!(s, "{p}\"counters\": {{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {v}");
        }
        s.push_str("},\n");
        let _ = write!(s, "{p}\"gauges\": {{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {v}");
        }
        s.push_str("},\n");
        let _ = write!(s, "{p}\"histograms\": {{");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"bounds\": [{}], \"buckets\": [{}], \"count\": {}, \"sum\": {}}}",
                h.name,
                bounds.join(", "),
                buckets.join(", "),
                h.count,
                h.sum
            );
        }
        s.push('}');
        s
    }
}

/// Bounded ring of the most recent admitted trace events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(cap),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events in arrival order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }
}

/// Admission filter for trace events: a minimum severity plus
/// deterministic counter-based sampling of `Debug` events (every
/// `sample_every`-th `Debug` event is admitted; `Info` and above are
/// never sampled away).
#[derive(Debug, Clone)]
pub struct TraceFilter {
    /// Events below this severity are discarded.
    pub min_severity: Severity,
    /// Keep one in `sample_every` `Debug` events (1 = keep all).
    pub sample_every: u32,
    debug_seen: u64,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            min_severity: Severity::Debug,
            sample_every: 1,
            debug_seen: 0,
        }
    }
}

impl TraceFilter {
    /// Whether an event of `sev` should be admitted, advancing the
    /// sampling counter for `Debug` events.
    pub fn admit(&mut self, sev: Severity) -> bool {
        if sev < self.min_severity {
            return false;
        }
        if sev == Severity::Debug && self.sample_every > 1 {
            let keep = self.debug_seen.is_multiple_of(u64::from(self.sample_every));
            self.debug_seen += 1;
            return keep;
        }
        true
    }
}

/// Default flight-recorder capacity (events retained per node).
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// Per-node telemetry bundle: metrics + trace filter + flight
/// recorder + identity (node id, seed) stamped into every rendering.
///
/// A disabled bundle (`Telemetry::disabled()` or
/// [`Telemetry::set_enabled`]`(false)`) short-circuits every record
/// path on a single branch; registrations still hand out valid ids so
/// instrumented code needs no conditional structure.
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    node: u32,
    seed: u64,
    /// The metrics store.
    pub metrics: MetricsRegistry,
    recorder: FlightRecorder,
    filter: TraceFilter,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(0, 0)
    }
}

impl Telemetry {
    /// An enabled bundle for node `node` under seed `seed`.
    pub fn new(node: u32, seed: u64) -> Self {
        Telemetry {
            enabled: true,
            node,
            seed,
            metrics: MetricsRegistry::new(),
            recorder: FlightRecorder::new(DEFAULT_FLIGHT_CAP),
            filter: TraceFilter::default(),
        }
    }

    /// A disabled bundle: every record path is a single-branch no-op.
    pub fn disabled() -> Self {
        let mut t = Telemetry::new(0, 0);
        t.enabled = false;
        t
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (registrations survive either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Stamp the identity rendered into snapshots and dumps.
    pub fn set_identity(&mut self, node: u32, seed: u64) {
        self.node = node;
        self.seed = seed;
    }

    /// The node id stamped into output.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Adjust the trace admission filter.
    pub fn set_filter(&mut self, min_severity: Severity, sample_every: u32) {
        self.filter.min_severity = min_severity;
        self.filter.sample_every = sample_every.max(1);
    }

    /// Register a counter (valid even while disabled).
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.metrics.counter(name)
    }

    /// Register a gauge (valid even while disabled).
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        self.metrics.gauge(name)
    }

    /// Register a histogram (valid even while disabled).
    pub fn histogram(&mut self, name: &'static str, bounds: &[u64]) -> HistogramId {
        self.metrics.histogram(name, bounds)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        if self.enabled {
            self.metrics.inc(id, 1);
        }
    }

    /// Increment a counter by `by`.
    #[inline]
    pub fn inc_by(&mut self, id: CounterId, by: u64) {
        if self.enabled {
            self.metrics.inc(id, by);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        if self.enabled {
            self.metrics.set(id, value);
        }
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if self.enabled {
            self.metrics.observe(id, value);
        }
    }

    /// Record a trace event into the flight recorder, subject to the
    /// admission filter.  `t_nanos` is simulation time.
    #[inline]
    pub fn record(
        &mut self,
        t_nanos: u64,
        severity: Severity,
        span: &'static str,
        name: &'static str,
        args: [(&'static str, u64); 3],
    ) {
        if !self.enabled || !self.filter.admit(severity) {
            return;
        }
        self.recorder.push(TraceEvent {
            t_nanos,
            severity,
            span,
            name,
            args,
        });
    }

    /// Read access to the flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Fold another bundle's metrics into this one (identity and
    /// recorder are untouched).
    pub fn merge_metrics_from(&mut self, other: &Telemetry) {
        self.metrics.merge_from(&other.metrics);
    }

    /// Deterministic metrics snapshot: identity + counters + gauges +
    /// histograms, as a standalone JSON object.
    pub fn snapshot_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = write!(
            s,
            "  \"node\": {},\n  \"seed\": {},\n",
            self.node, self.seed
        );
        s.push_str(&self.metrics.render_json(2));
        s.push_str("\n}\n");
        s
    }

    /// Post-mortem dump: identity + `reason` + metrics + the retained
    /// flight-recorder events, as a standalone JSON object.
    pub fn dump_json(&self, reason: &str) -> String {
        let mut s = String::from("{\n");
        let _ = write!(
            s,
            "  \"flight_recorder\": true,\n  \"node\": {},\n  \"seed\": {},\n  \"reason\": \"{}\",\n  \"dropped\": {},\n",
            self.node,
            self.seed,
            reason.replace('"', "'"),
            self.recorder.dropped
        );
        s.push_str(&self.metrics.render_json(2));
        s.push_str(",\n  \"events\": [\n");
        let n = self.recorder.len();
        for (i, ev) in self.recorder.events().enumerate() {
            s.push_str("    ");
            ev.render_json(&mut s);
            s.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a, 2);
        m.inc(b, 3);
        assert_eq!(m.counter_value(a), 5);
        assert_eq!(m.counter_by_name("x"), 5);
        assert_eq!(m.counter_by_name("missing"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            m.observe(h, v);
        }
        let rendered = m.render_json(0);
        // buckets: <=10 -> 2, <=100 -> 2, overflow -> 2
        assert!(rendered.contains("\"buckets\": [2, 2, 2]"), "{rendered}");
        assert!(rendered.contains("\"count\": 6"), "{rendered}");
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let ca = a.counter("c");
        a.inc(ca, 1);
        let ha = a.histogram("h", &[5]);
        a.observe(ha, 3);
        let mut b = MetricsRegistry::new();
        let cb = b.counter("c");
        b.inc(cb, 4);
        let hb = b.histogram("h", &[5]);
        b.observe(hb, 9);
        let onlyb = b.counter("only_b");
        b.inc(onlyb, 7);
        a.merge_from(&b);
        assert_eq!(a.counter_by_name("c"), 5);
        assert_eq!(a.counter_by_name("only_b"), 7);
        let rendered = a.render_json(0);
        assert!(rendered.contains("\"buckets\": [1, 1]"), "{rendered}");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::disabled();
        let c = t.counter("c");
        t.inc(c);
        t.record(1, Severity::Error, "s", "n", [NO_ARG; 3]);
        assert_eq!(t.metrics.counter_value(c), 0);
        assert!(t.recorder().is_empty());
    }

    #[test]
    fn flight_recorder_is_bounded() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(TraceEvent {
                t_nanos: i,
                severity: Severity::Info,
                span: "s",
                name: "n",
                args: [NO_ARG; 3],
            });
        }
        assert_eq!(r.len(), 3);
        let ts: Vec<u64> = r.events().map(|e| e.t_nanos).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(r.dropped, 2);
    }

    #[test]
    fn severity_filter_and_debug_sampling() {
        let mut t = Telemetry::new(0, 0);
        t.set_filter(Severity::Info, 1);
        t.record(1, Severity::Debug, "s", "dropped", [NO_ARG; 3]);
        t.record(2, Severity::Info, "s", "kept", [NO_ARG; 3]);
        assert_eq!(t.recorder().len(), 1);

        let mut t = Telemetry::new(0, 0);
        t.set_filter(Severity::Debug, 4);
        for i in 0..8 {
            t.record(i, Severity::Debug, "s", "d", [NO_ARG; 3]);
        }
        // Every 4th debug event admitted: indices 0 and 4.
        assert_eq!(t.recorder().len(), 2);
        // Info events bypass sampling entirely.
        t.record(99, Severity::Info, "s", "i", [NO_ARG; 3]);
        assert_eq!(t.recorder().len(), 3);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_identity_stamped() {
        let build = || {
            let mut t = Telemetry::new(7, 42);
            let c = t.counter("alloc.requests");
            t.inc(c);
            t.inc(c);
            let g = t.gauge("cache.size");
            t.set(g, -3);
            let h = t.histogram("defend.delay_ms", &[100, 1000]);
            t.observe(h, 250);
            t
        };
        let a = build().snapshot_json();
        let b = build().snapshot_json();
        assert_eq!(a, b);
        assert!(a.contains("\"node\": 7"), "{a}");
        assert!(a.contains("\"seed\": 42"), "{a}");
        assert!(a.contains("\"alloc.requests\": 2"), "{a}");
        assert!(a.contains("\"cache.size\": -3"), "{a}");
    }

    #[test]
    fn dump_json_contains_events_and_reason() {
        let mut t = Telemetry::new(1, 9);
        t.record(
            5,
            Severity::Warn,
            "clash",
            "third_party_armed",
            [("addr", 17), ("fire_ms", 230), NO_ARG],
        );
        let d = t.dump_json("forced \"failure\"");
        assert!(d.contains("\"flight_recorder\": true"), "{d}");
        assert!(d.contains("\"reason\": \"forced 'failure'\""), "{d}");
        assert!(d.contains("\"name\": \"third_party_armed\""), "{d}");
        assert!(d.contains("\"addr\": 17"), "{d}");
        assert!(!d.contains("\"\": 0"), "empty arg slots leak: {d}");
    }
}
