//! The metric tables: the single source for `BENCHMARK.json`, for the
//! names the binary prints, and for the bounds `--repeat` checks.

use crate::stats::json_string;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// End-to-end metrics: what a user of the directory sees.  Measured
/// with tracing off; every workload reports all of them.
///
/// Only figures that are mostly waiting or memory are here.  Everything
/// that is time on a CPU (ingest rate, query times) repeats no better
/// than 0.2-0.4 between runs on the shared 2-core hosts this runs on,
/// whatever it is calibrated by, and is a per-layer metric (README,
/// "Steadiness").  Bounds: three times the widest ten-seed spread seen,
/// at most the contract's ceiling; `setup_s`, which is CPU time, gets the
/// ceiling.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "visible_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "visible_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "staleness_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run, module names as prefixes.
pub const PER_LAYER: [PerLayer; 70] = [
    pl("stage.command_ms_p50", "ms", "lower"),
    pl("stage.command_ms_p95", "ms", "lower"),
    pl("stage.announce_ms_p50", "ms", "lower"),
    pl("stage.announce_ms_p95", "ms", "lower"),
    pl("stage.ingest_publish_wait_ms_p50", "ms", "lower"),
    pl("stage.ingest_publish_wait_ms_p95", "ms", "lower"),
    pl("stage.capture_swap_ms_p50", "ms", "lower"),
    pl("stage.capture_swap_ms_p95", "ms", "lower"),
    pl("stage.reader_poll_ms_p50", "ms", "lower"),
    pl("stage.reader_poll_ms_p95", "ms", "lower"),
    pl("stage.sum_ms_p50", "ms", "lower"),
    pl("wire.decode_ns", "ns", "lower"),
    pl("wire.decode_owned_ns", "ns", "lower"),
    pl("wire.encode_ns", "ns", "lower"),
    pl("wire.bytes_per_announce", "B", "lower"),
    pl("sdp.parse_ns", "ns", "lower"),
    pl("sdp.format_ns", "ns", "lower"),
    pl("cache.refresh_ns", "ns", "lower"),
    pl("cache.admit_ns", "ns", "lower"),
    pl("cache.delete_ns", "ns", "lower"),
    pl("cache.get_ns", "ns", "lower"),
    pl("cache.probe_ns", "ns", "lower"),
    pl("directory.on_packet_ns_p50", "ns", "lower"),
    pl("directory.on_packet_ns_p99", "ns", "lower"),
    pl("directory.on_packet_new_ns", "ns", "lower"),
    pl("directory.on_packet_clash_us", "us", "lower"),
    pl("directory.slow_path_share", "ratio", "lower"),
    pl("directory.governor_refused_share", "ratio", "lower"),
    pl("directory.allocs_per_packet", "count", "lower"),
    pl("directory.create_us", "us", "lower"),
    pl("directory.current_view_us", "us", "lower"),
    pl("directory.poll_idle_ns", "ns", "lower"),
    pl("directory.poll_announce_us", "us", "lower"),
    pl("core.allocate_us", "us", "lower"),
    pl("timer.schedule_ns", "ns", "lower"),
    pl("timer.drain_due_ns", "ns", "lower"),
    pl("snapshot.capture_ms", "ms", "lower"),
    pl("snapshot.capture_ns_per_row", "ns", "lower"),
    pl("snapshot.publish_swap_ns", "ns", "lower"),
    pl("snapshot.publishes_per_s", "1/s", "higher"),
    pl("snapshot.rows_copied_per_update", "ratio", "lower"),
    pl("snapshot.load_ns", "ns", "lower"),
    pl("snapshot.get_ns", "ns", "lower"),
    pl("snapshot.group_in_use_ns", "ns", "lower"),
    pl("snapshot.matching_us", "us", "lower"),
    pl("snapshot.reader_allocs_per_1k", "count", "lower"),
    pl("reader.point_query_ns", "ns", "lower"),
    pl("reader.scan_us", "us", "lower"),
    pl("bus.send_ns", "ns", "lower"),
    pl("bus.recv_ns", "ns", "lower"),
    pl("bus.allocs_per_send", "count", "lower"),
    pl("bus.delivered", "count", "higher"),
    pl("bus.dropped_full", "count", "lower"),
    pl("driver.ingest_per_s", "pkt/s", "higher"),
    pl("driver.step_us_p50", "us", "lower"),
    pl("driver.step_us_p99", "us", "lower"),
    pl("driver.rx_per_step", "ratio", "higher"),
    pl("driver.create_rtt_us_p50", "us", "lower"),
    pl("driver.create_rtt_us_p95", "us", "lower"),
    pl("driver.create_rtt_idle_ms", "ms", "lower"),
    pl("telemetry.overhead_ratio", "ratio", "lower"),
    pl("net.udp_available", "count", "higher"),
    pl("net.send_us", "us", "lower"),
    pl("net.recv_us", "us", "lower"),
    pl("net.loss_share", "ratio", "lower"),
    pl("trace.visible_ms_p50", "ms", "lower"),
    pl("trace.visible_samples", "count", "higher"),
    pl("harness.ticker_late_ms_p99", "ms", "lower"),
    pl("harness.creator_late_ms_p99", "ms", "lower"),
    pl("harness.ticks_skipped_share", "ratio", "lower"),
];

/// The measuring time of one contract run, seconds.
pub const RUN_SECONDS: u32 = 24;

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str("    {\"name\": ");
        json_string(&mut out, w.name);
        out.push_str(", \"why\": ");
        json_string(&mut out, w.why);
        out.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better,
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        let mut names = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        // 4 + 22 per workload runs, two builds: inside 3420 s with room.
        let runs = 4 + 22 * WORKLOADS.len() as u32;
        assert!(runs * (RUN_SECONDS + 8) + 120 < 3_420);
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
