//! The four workloads.  Each `why` is the one-line reason that also
//! stands in `BENCHMARK.json`.

use crate::fixture::Kind;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Sessions pre-loaded into both agents.
    pub residents: usize,
    /// Open-loop background rate in the `propagate` phase, packets/s.
    pub background_pps: u64,
    /// `storm_10k` only: the governor's hard entry budget.
    pub governor_max_entries: Option<usize>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_30k",
        why: "30k residents, refreshes only: snapshot capture and current_view are O(rows) and cost a tenth of the cadence, so an O(changes) publish must show here",
        kind: Kind::Steady,
        residents: 30_000,
        background_pps: 2_000,
        governor_max_entries: None,
    },
    Workload {
        name: "steady_1k",
        why: "1k residents, refreshes only: capture is free, so latency is the fixed waits and throughput is per-packet cost; an O(changes) publish must show nothing",
        kind: Kind::Steady,
        residents: 1_000,
        background_pps: 2_000,
        governor_max_entries: None,
    },
    Workload {
        name: "churn_30k",
        why: "30k residents with 13% inserts, 2% third-party clashes and 15% deletes beside 70% refreshes: writes that change rows and the clash-defence slow path",
        kind: Kind::Churn,
        residents: 30_000,
        background_pps: 2_000,
        governor_max_entries: None,
    },
    Workload {
        name: "storm_10k",
        why: "10k residents under a 3:1 hostile flood (forged sessions, unparseable payloads, 1 kB names) with the governor on: packets leave the fast path, state stays bounded",
        kind: Kind::Storm,
        residents: 10_000,
        background_pps: 8_000,
        governor_max_entries: Some(12_000),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
