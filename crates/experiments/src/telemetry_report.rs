//! `experiments report` — fold the telemetry sidecars under
//! `results_full/` into one markdown report.
//!
//! Inputs (all produced by other targets of the same binary or by the
//! bench harness):
//!
//! * `TELEMETRY_chaos.json` — per-node directory/clash metric snapshots
//!   from the instrumented chaos partition-heal run (`experiments
//!   chaos`); feeds the clash-count table and the defence-latency
//!   histogram.
//! * `TELEMETRY_rr.json` — suppression metrics from a deterministic
//!   request–response run.  Regenerated in place when missing, so
//!   `experiments report` works standalone; the observed response
//!   counts are set against the paper's Equation 2–4 predictions.
//! * `BENCH_scale.json` — the cache benchmark's per-workload timings
//!   (`directory_scale`, full mode).
//!
//! The parsing layer is a deliberately small hand-rolled scanner over
//! the known emitter formats (flat `"key": value` pairs, `[u64, ...]`
//! arrays, one level of histogram objects) — the workspace takes no
//! JSON dependency for this.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use sdalloc_rr::analytic::{
    buckets, expected_responses_exponential, expected_responses_naive, expected_responses_uniform,
};
use sdalloc_rr::sim::{DelayDist, Population, RrParams, RrSim, TreeMode};
use sdalloc_sim::{SimDuration, SimRng};
use sdalloc_topology::doar::{generate as doar_generate, DoarParams};
use sdalloc_topology::NodeId;

// ---------------------------------------------------------------------
// Mini JSON scanners (format-specific, not a general parser).
// ---------------------------------------------------------------------

/// The top-level `{...}` object spans inside `s`, by brace depth.
/// String escapes don't matter for our emitters (keys and values never
/// contain braces or quotes beyond the reason field, which replaces
/// `"` with `'`).
fn split_objects(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_str = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'{' if !in_str => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if !in_str => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(&s[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The first `"key": <integer>` value in `obj`.
fn field_i64(obj: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    field_i64(obj, key).and_then(|v| u64::try_from(v).ok())
}

/// The first `"key": [u64, ...]` array in `obj`.
fn field_array(obj: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\": [");
    let at = obj.find(&pat)? + pat.len();
    let end = obj[at..].find(']')? + at;
    let body = &obj[at..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|t| t.trim().parse().ok()).collect()
}

/// A histogram snapshot as the metrics registry renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HistSnapshot {
    bounds: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

/// The `"name": {"bounds": [...], "buckets": [...], ...}` histogram.
fn field_hist(obj: &str, name: &str) -> Option<HistSnapshot> {
    let pat = format!("\"{name}\": {{");
    let at = obj.find(&pat)? + pat.len();
    let end = obj[at..].find('}')? + at;
    let body = &obj[at..end];
    Some(HistSnapshot {
        bounds: field_array(body, "bounds")?,
        buckets: field_array(body, "buckets")?,
        count: field_u64(body, "count")?,
        sum: field_u64(body, "sum")?,
    })
}

// ---------------------------------------------------------------------
// RR telemetry generation (when the sidecar is missing).
// ---------------------------------------------------------------------

/// Parameters baked into the generated `TELEMETRY_rr.json`, echoed in
/// its `meta` block so the report's Eq 2–4 comparison is self-describing.
const RR_SITES: usize = 200;
const RR_D2_MS: u64 = 800;
const RR_RTT_MS: u64 = 200;
const RR_REPEATS: usize = 64;

/// Run the deterministic request–response exchange matrix and render
/// the telemetry sidecar (meta block + the harness's metric snapshot).
pub fn generate_rr_telemetry(seed: u64) -> String {
    let topo = doar_generate(&DoarParams::new(RR_SITES, seed));
    let mut sim = RrSim::new(&topo);
    let params = RrParams {
        tree: TreeMode::SourceTrees,
        dist: DelayDist::Uniform,
        d1: SimDuration::ZERO,
        d2: SimDuration::from_millis(RR_D2_MS),
        rtt: SimDuration::from_millis(RR_RTT_MS),
        jitter_per_hop: None,
        population: Population::All,
    };
    let mut rng = SimRng::new(seed);
    for _ in 0..RR_REPEATS {
        let requester = NodeId(rng.below(RR_SITES as u64) as u32);
        sim.run_once(&params, requester, &mut rng);
    }
    let mut s = String::from("{\n");
    let _ = write!(
        s,
        "\"meta\": {{\"sites\": {RR_SITES}, \"d2_ms\": {RR_D2_MS}, \"rtt_ms\": {RR_RTT_MS}, \"repeats\": {RR_REPEATS}, \"seed\": {seed}}},\n\"telemetry\": "
    );
    s.push_str(sim.telemetry().snapshot_json().trim_end());
    s.push_str("\n}\n");
    s
}

// ---------------------------------------------------------------------
// Report assembly.
// ---------------------------------------------------------------------

fn chaos_section(out: &mut String, dir: &Path) {
    out.push_str("## Clash activity (TELEMETRY_chaos.json)\n\n");
    let path = dir.join("TELEMETRY_chaos.json");
    let Ok(json) = fs::read_to_string(&path) else {
        let _ = writeln!(
            out,
            "_missing: {} — run `experiments chaos` first._\n",
            path.display()
        );
        return;
    };
    let nodes = split_objects(&json);
    out.push_str("Per-node counters from the instrumented partition-heal run:\n\n");
    out.push_str(
        "| node | created | moved | defend_own | modify_own | 3rd-party armed | 3rd-party fired | announces sent |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    let keys = [
        "dir.sessions_created",
        "dir.moved",
        "clash.defend_own",
        "clash.modify_own",
        "clash.third_party_armed",
        "clash.third_party_fired",
        "announce.sent",
    ];
    let mut merged: Option<HistSnapshot> = None;
    for obj in &nodes {
        let node = field_u64(obj, "node").unwrap_or(0);
        let _ = write!(out, "| {node} |");
        for k in keys {
            let _ = write!(out, " {} |", field_u64(obj, k).unwrap_or(0));
        }
        out.push('\n');
        if let Some(h) = field_hist(obj, "clash.defence_delay_ms") {
            merged = Some(match merged.take() {
                None => h,
                Some(mut m) => {
                    for (b, v) in m.buckets.iter_mut().zip(&h.buckets) {
                        *b += v;
                    }
                    m.count += h.count;
                    m.sum += h.sum;
                    m
                }
            });
        }
    }
    out.push('\n');
    if let Some(h) = merged {
        out.push_str("Defence-delay histogram (`clash.defence_delay_ms`, all nodes):\n\n");
        out.push_str("| bucket (ms) | count |\n|---|---|\n");
        for (i, count) in h.buckets.iter().enumerate() {
            let label = match (i.checked_sub(1).map(|p| h.bounds.get(p)), h.bounds.get(i)) {
                (_, Some(hi)) => format!("<= {hi}"),
                _ => format!("> {}", h.bounds.last().copied().unwrap_or(0)),
            };
            let _ = writeln!(out, "| {label} | {count} |");
        }
        let mean = if h.count > 0 {
            h.sum as f64 / h.count as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "\nobservations: {}, mean {:.1} ms\n", h.count, mean);
    }
}

fn rr_section(out: &mut String, dir: &Path, seed: u64) {
    out.push_str("## Request–response suppression (TELEMETRY_rr.json)\n\n");
    let path = dir.join("TELEMETRY_rr.json");
    let json = match fs::read_to_string(&path) {
        Ok(j) => j,
        Err(_) => {
            let j = generate_rr_telemetry(seed);
            if fs::create_dir_all(dir)
                .and_then(|()| fs::write(&path, j.as_bytes()))
                .is_ok()
            {
                let _ = writeln!(out, "_generated {} (was missing)._\n", path.display());
            }
            j
        }
    };
    let sites = field_u64(&json, "sites").unwrap_or(RR_SITES as u64);
    let d2_ms = field_u64(&json, "d2_ms").unwrap_or(RR_D2_MS);
    let rtt_ms = field_u64(&json, "rtt_ms").unwrap_or(RR_RTT_MS);
    let requests = field_u64(&json, "rr.requests").unwrap_or(0);
    let sent = field_u64(&json, "rr.responses_sent").unwrap_or(0);
    let suppressed = field_u64(&json, "rr.suppressed").unwrap_or(0);
    let _ = writeln!(
        out,
        "{sites} sites, uniform delay over D2 = {d2_ms} ms, RTT = {rtt_ms} ms.\n"
    );
    out.push_str("| metric | value |\n|---|---|\n");
    let _ = writeln!(out, "| requests | {requests} |");
    let _ = writeln!(out, "| responses sent | {sent} |");
    let _ = writeln!(out, "| responses suppressed | {suppressed} |");
    let observed = if requests > 0 {
        sent as f64 / requests as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "| mean responses / request | {observed:.3} |");
    if let Some(h) = field_hist(&json, "rr.first_response_ms") {
        let mean = if h.count > 0 {
            h.sum as f64 / h.count as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "| mean first-response latency | {mean:.0} ms |");
    }
    out.push('\n');

    // The paper's closed forms (Section 3, Equations 2–4): n responders
    // picking one of d = (D2 − D1)/RTT buckets.  The simulated protocol
    // also suppresses *within* a bucket along the routing tree, so the
    // observed mean should sit at or below every model line.
    let n = sites.saturating_sub(1).max(1);
    let d = buckets(d2_ms as f64, rtt_ms as f64);
    let uniform = expected_responses_uniform(n, d);
    let naive = expected_responses_naive(n, &vec![1.0; d as usize]);
    let exponential = expected_responses_exponential(n, d);
    out.push_str(&format!(
        "Upper-bound predictions for n = {n} responders, d = {d} buckets:\n\n"
    ));
    out.push_str("| model | E[responses] | observed / model |\n|---|---|---|\n");
    for (name, model) in [
        ("Eq 2 (uniform, closed form)", uniform),
        ("Eq 2 (uniform, naive sum)", naive),
        ("Eq 3–4 (exponential)", exponential),
    ] {
        let _ = writeln!(out, "| {name} | {model:.3} | {:.2} |", observed / model);
    }
    let _ = writeln!(
        out,
        "\nThe uniform bound ignores in-bucket suppression; the routed\nsimulation suppresses along the tree as well, so a ratio <= 1\nagainst Eq 2 is the expected outcome.\n"
    );
}

fn bench_section(out: &mut String, dir: &Path) {
    out.push_str("## Cache benchmark (BENCH_scale.json)\n\n");
    let path = dir.join("BENCH_scale.json");
    let Ok(json) = fs::read_to_string(&path) else {
        let _ = writeln!(
            out,
            "_missing: {} — run `directory_scale` (full mode) first._\n",
            path.display()
        );
        return;
    };
    out.push_str("| size | workload | total (ms) | p50 (ns) | p99 (ns) |\n");
    out.push_str("|---|---|---|---|---|\n");
    // The outer object contains one span per result row; skip any
    // object without a workload field (the wrapper itself).
    for obj in split_objects(&json) {
        for row in split_objects(&obj[1..obj.len().saturating_sub(1)]) {
            let Some(at) = row.find("\"workload\": \"") else {
                continue;
            };
            let rest = &row[at + "\"workload\": \"".len()..];
            let workload = rest.split('"').next().unwrap_or("?");
            let size = field_u64(row, "size").unwrap_or(0);
            let total = field_u64(row, "total_ns").unwrap_or(0);
            let per_op = |name| field_u64(row, name).map_or("-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "| {size} | {workload} | {:.3} | {} | {} |",
                total as f64 / 1e6,
                per_op("p50_ns"),
                per_op("p99_ns"),
            );
        }
    }
    out.push('\n');
}

/// Build the full markdown report from the sidecars in `dir`,
/// generating `TELEMETRY_rr.json` there if missing.
pub fn generate(dir: &Path, seed: u64) -> String {
    let mut out = String::from(
        "# Telemetry report\n\nFolded from the deterministic telemetry sidecars by `experiments report`.\nSame seeds, same sidecars, byte-identical report.\n\n",
    );
    chaos_section(&mut out, dir);
    rr_section(&mut out, dir, seed);
    bench_section(&mut out, dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanners_read_the_emitter_formats() {
        let obj = r#"{"node": 3, "counters": {"a.b": 17, "c": -2},
            "histograms": {"h.ms": {"bounds": [10, 100], "buckets": [1, 2, 3], "count": 6, "sum": 450}}}"#;
        assert_eq!(field_u64(obj, "node"), Some(3));
        assert_eq!(field_u64(obj, "a.b"), Some(17));
        assert_eq!(field_i64(obj, "c"), Some(-2));
        assert_eq!(field_u64(obj, "missing"), None);
        let h = field_hist(obj, "h.ms").expect("histogram parses");
        assert_eq!(h.bounds, vec![10, 100]);
        assert_eq!(h.buckets, vec![1, 2, 3]);
        assert_eq!((h.count, h.sum), (6, 450));
    }

    #[test]
    fn split_objects_finds_top_level_spans() {
        let s = "[\n{\"a\": 1, \"inner\": {\"b\": 2}},\n{\"c\": 3}\n]";
        let objs = split_objects(s);
        assert_eq!(objs.len(), 2);
        assert!(objs[0].contains("\"a\": 1") && objs[0].contains("\"b\": 2"));
        assert!(objs[1].contains("\"c\": 3"));
    }

    #[test]
    fn rr_telemetry_is_deterministic_and_consistent() {
        let a = generate_rr_telemetry(1998);
        let b = generate_rr_telemetry(1998);
        assert_eq!(a, b);
        let requests = field_u64(&a, "rr.requests").expect("requests");
        assert_eq!(requests, RR_REPEATS as u64);
        let sent = field_u64(&a, "rr.responses_sent").expect("sent");
        let suppressed = field_u64(&a, "rr.suppressed").expect("suppressed");
        // Every member either responded or was suppressed, every round.
        assert_eq!(sent + suppressed, (RR_SITES as u64 - 1) * RR_REPEATS as u64);
    }

    #[test]
    fn report_renders_from_a_temp_dir() {
        let dir = std::env::temp_dir().join("sdalloc_report_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let md = generate(&dir, 1998);
        // chaos/bench sidecars are absent; rr was generated in place.
        assert!(md.contains("missing"), "{md}");
        assert!(dir.join("TELEMETRY_rr.json").exists());
        assert!(md.contains("Eq 2 (uniform, closed form)"), "{md}");
        assert!(md.contains("| requests | 64 |"), "{md}");
        // Observed suppression must undercut the uniform upper bound.
        let n = RR_SITES as u64 - 1;
        let d = buckets(RR_D2_MS as f64, RR_RTT_MS as f64);
        let json = fs::read_to_string(dir.join("TELEMETRY_rr.json")).expect("read");
        let observed = field_u64(&json, "rr.responses_sent").expect("sent") as f64
            / field_u64(&json, "rr.requests").expect("req") as f64;
        assert!(
            observed <= expected_responses_uniform(n, d) + 1e-9,
            "observed {observed} above the Eq 2 bound"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
