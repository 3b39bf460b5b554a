//! `sdalloc-benchmark` — create-on-A → readable-on-B latency, ingest
//! capacity and reader cost of the session directory, over four
//! workloads, with an outside-in stage trace.  See `README.md`.
//!
//! Two shapes of invocation:
//!
//! * **one run** (`--workload W --trace 0|1`, what the driver calls):
//!   set-up, `saturate`, `propagate`, output checks, then every metric
//!   by name and, as the last line, the result object.
//! * **a set of runs** (anything else): each run is a child process of
//!   this same binary, so peak RSS and allocator state never leak from
//!   one run into the next; the parent prints the table, the tracing
//!   overhead, and with `--repeat N` the spread against each bound.

mod alloc_count;
mod calib;
mod fixture;
mod metrics;
mod micro;
mod phases;
mod stats;
mod sut;
mod workload;

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use phases::{Plan, Propagated, Saturated};
use stats::{highest_supported, history_line, result_line, Metric, Samples};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Load threads this harness runs beside the two agent threads.
const LOAD_THREADS: usize = 2;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `Some(false)` untraced, `Some(true)` traced, `None` both.
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    history: Option<String>,
    commit: String,
    emit_benchmark_json: bool,
}

fn usage() -> &'static str {
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]\n\
     \x20             [--quick] [--repeat N] [--history FILE] [--commit ID]\n\
     workloads: steady_30k steady_1k churn_30k storm_10k (default: all four)\n\
     --trace 0|1   one untraced / traced run (default: both, with the overhead ratio)\n\
     --quick       smoke of the selected workloads at reduced phase lengths\n\
     --repeat N    N untraced sets; prints min/median/max and spread against each bound"
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        repeat: 0,
        history: None,
        commit: "unknown".into(),
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} wants {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err("--seconds must be between 0.5 and 120".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                })
            }
            "--traced" => a.trace = Some(true),
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--history" => a.history = Some(value("a file")?),
            "--commit" => a.commit = value("an id")?,
            "--emit-benchmark-json" => a.emit_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &a.workload {
        if name != "all" && workload::find(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Process peak RSS in MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// One run of one workload, in this process.
fn run_one(w: &Workload, a: &Args, traced: bool) -> RunOutput {
    let seconds = a.seconds.unwrap_or(if a.quick {
        1.0
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    let plan = Plan::new(seconds, traced);
    let cores = nproc();
    println!(
        "== {} seed {} trace {} seconds {} nproc {} load_threads {} ({})",
        w.name,
        a.seed,
        u8::from(traced),
        seconds,
        cores,
        LOAD_THREADS,
        if a.quick { "quick" } else { "full" },
    );

    // One run: set-up, `saturate` chunk, set-up, `propagate`, set-up,
    // `saturate` chunk.  Every set-up is timed, and the two chunks sit
    // some 20 s apart, so a slow episode of the host rarely covers all
    // of either measurement.
    let mut setups = Samples::default();
    let mut setups_raw = Samples::default();
    let mut note = |timed: phases::SetUp| {
        setups.push(timed.at_reference_speed());
        setups_raw.push(timed.secs);
    };
    let mut sat = Saturated::default();
    let (world, mut agents, timed) = phases::set_up(w, a.seed);
    let first = timed.secs;
    note(timed);
    // A quick run has one chunk only, and two set-ups.
    let chunk_ns = if a.quick {
        plan.saturate_ns
    } else {
        plan.saturate_ns / 2
    };
    sat.merge(phases::saturate(w, &world, &mut agents, chunk_ns, traced));
    drop((world, agents));
    // Three set-ups serve the phases; small workloads add spares until
    // about a second is spent.  A quick run adds none.
    let extra = if a.quick {
        0
    } else {
        ((1.0 / first.max(1e-3)).ceil() as usize).clamp(3, 120) - 3
    };
    for _ in 0..extra / 2 {
        note(phases::set_up(w, a.seed).2);
    }
    let (world, agents, timed) = phases::set_up(w, a.seed);
    note(timed);
    let mut prop: Propagated = phases::propagate(w, &world, agents, &plan, a.seed, traced);
    // Peak RSS covers one pair of agents with its fixture: `propagate`
    // holds the most (snapshots in flight, reader pins).
    let rss = peak_rss_mb();
    for _ in 0..extra - extra / 2 {
        note(phases::set_up(w, a.seed).2);
    }
    if !a.quick {
        let (world, mut agents, timed) = phases::set_up(w, a.seed);
        note(timed);
        sat.merge(phases::saturate(w, &world, &mut agents, chunk_ns, traced));
    }
    // Set-up times and `saturate` slices are scaled by the yardstick
    // taken around each (`calib.rs`).  Set-up and query timings are then
    // reported as lower quartiles, not medians: what the yardstick does
    // not catch of this host's slow episodes only ever adds (README,
    // "Steadiness").
    let setup_s = setups.p(25.0) + prop.spawn_s;
    let ingest_per_s = sat.ingest_per_s();

    let mut violations = sat.violations.clone();
    violations.append(&mut prop.violations);
    let attempted = prop.creates + prop.audited;
    let failed = prop.create_errors + prop.missed + prop.audit_mismatches;
    if prop.visible_ms.is_empty() {
        violations.push("no create became readable on B".into());
    }

    let tail = highest_supported(prop.visible_ms.len(), &[90.0, 95.0, 99.0, 99.9]);
    println!(
        "  creates {} (errors {}, past {} ms {}), audited keys {} (mismatches {}), background packets {}, deleted sessions resurrected by a defence {}",
        prop.creates, prop.create_errors, phases::VISIBLE_LIMIT_MS, prop.missed, prop.audited, prop.audit_mismatches, prop.background_sent, prop.resurrected,
    );
    println!(
        "  visible samples {}{}, staleness samples {}, query ticks {}, scans {}, set-ups timed {}",
        prop.visible_ms.len(),
        if tail.is_some() {
            ""
        } else {
            " (p90 has fewer than 10 samples beyond it)"
        },
        prop.staleness_ms.len(),
        prop.point_ns.len(),
        prop.scan_us.len(),
        setups.len(),
    );
    if let Some(tail) = tail {
        println!(
            "  visible_ms highest percentile with >= 10 samples beyond it: p{tail} = {:.3} ms; saturate absorbed {} packets",
            prop.visible_ms.p(tail),
            sat.packets,
        );
    }
    println!(
        "  saturate: {} publish-to-publish slices; ingest at the reference host speed {:.0} pkt/s (per-layer driver.ingest_per_s), as measured {:.0} pkt/s (median of 0.5 s windows {:.0}), yardstick median {:.2} ns against the reference {} ns",
        sat.slice_ns_per_packet.len(),
        ingest_per_s,
        1e9 / sat.slice_ns_per_packet_raw.median().max(1e-9),
        sat.window_rates.median(),
        sat.yardstick_ns.median(),
        calib::REFERENCE_NS,
    );
    println!(
        "  set-ups as measured: min {:.4} p25 {:.4} median {:.4} max {:.4} s; scaled: p25 {:.4} median {:.4}",
        setups_raw.p(0.001),
        setups_raw.p(25.0),
        setups_raw.median(),
        setups_raw.max(),
        setups.p(25.0),
        setups.median(),
    );
    println!(
        "  slice time per packet p25 {:.0} p50 {:.0} p75 {:.0} ns; visible_ms p95 {:.1}; staleness_ms p50 {:.1} p95 {:.1}",
        sat.slice_ns_per_packet.p(25.0),
        sat.slice_ns_per_packet.p(50.0),
        sat.slice_ns_per_packet.p(75.0),
        prop.visible_ms.p(95.0),
        prop.staleness_ms.p(50.0),
        prop.staleness_ms.p(95.0),
    );
    println!(
        "  point query p25 {:.1} ns median {:.1} ns (per tick, mean of >= 64 get/group_in_use); scan p25 {:.1} us median {:.1} us (per-layer reader.*: the lower quartiles)",
        prop.point_ns.p(25.0),
        prop.point_ns.median(),
        prop.scan_us.p(25.0),
        prop.scan_us.median(),
    );
    println!(
        "  ticker late p50 {:.3} ms p99 {:.3} ms max {:.3} ms, creator late p50 {:.3} ms p99 {:.3} ms max {:.3} ms",
        prop.ticker_late.p50_ms(),
        prop.ticker_late.p99_ms(),
        prop.ticker_late.max_ms(),
        prop.creator_late.p50_ms(),
        prop.creator_late.p99_ms(),
        prop.creator_late.max_ms(),
    );

    let metrics = if traced {
        let mut m = Vec::new();
        let s = &mut prop.stages;
        let mut sum = 0.0;
        for (name, samples) in [
            ("stage.command_ms", &mut s.command_ms),
            ("stage.announce_ms", &mut s.announce_ms),
            (
                "stage.ingest_publish_wait_ms",
                &mut s.ingest_publish_wait_ms,
            ),
            ("stage.capture_swap_ms", &mut s.capture_swap_ms),
            ("stage.reader_poll_ms", &mut s.reader_poll_ms),
        ] {
            sum += samples.median();
            m.push(Metric::new(&format!("{name}_p50"), samples.median(), "ms"));
            m.push(Metric::new(&format!("{name}_p95"), samples.p(95.0), "ms"));
        }
        m.push(Metric::new("stage.sum_ms_p50", sum, "ms"));
        // Medians of skewed spans do not add; means do, exactly.
        println!(
            "  stage means: command {:.3} + announce {:.3} + ingest_publish_wait {:.3} + capture_swap {:.3} + reader_poll {:.3} = {:.3} ms; visible_ms mean {:.3} ms",
            s.command_ms.mean(),
            s.announce_ms.mean(),
            s.ingest_publish_wait_ms.mean(),
            s.capture_swap_ms.mean(),
            s.reader_poll_ms.mean(),
            s.command_ms.mean()
                + s.announce_ms.mean()
                + s.ingest_publish_wait_ms.mean()
                + s.capture_swap_ms.mean()
                + s.reader_poll_ms.mean(),
            prop.visible_ms.mean(),
        );
        m.extend(micro::run(w, &world, plan.micro_ns, a.seed));
        let b = &prop.exit_b;
        let rx = b.runtime_counter("runtime.rx").max(1) as f64;
        let refused = b.directory_counter("governor.rate_limited")
            + b.directory_counter("governor.rejected_quota")
            + b.directory_counter("governor.rejected_budget");
        let mut sat_steps = sat.step_us.clone();
        m.extend([
            Metric::new(
                "directory.governor_refused_share",
                refused as f64 / b.directory_counter("net.rx_packets").max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "snapshot.publishes_per_s",
                b.published_since_spawn as f64 / prop.runtime_s.max(1e-9),
                "1/s",
            ),
            Metric::new(
                "snapshot.rows_copied_per_update",
                b.published_since_spawn as f64 * b.last_rows as f64 / rx,
                "ratio",
            ),
            Metric::new("reader.point_query_ns", prop.point_ns.p(25.0), "ns"),
            Metric::new("reader.scan_us", prop.scan_us.p(25.0), "us"),
            Metric::new("bus.delivered", prop.bus.delivered as f64, "count"),
            Metric::new("bus.dropped_full", prop.bus.dropped_full as f64, "count"),
            Metric::new("driver.ingest_per_s", ingest_per_s, "pkt/s"),
            Metric::new("driver.step_us_p50", sat_steps.median(), "us"),
            Metric::new("driver.step_us_p99", sat_steps.p(99.0), "us"),
            Metric::new(
                "driver.rx_per_step",
                rx / b.runtime_counter("runtime.steps").max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "driver.create_rtt_us_p50",
                prop.create_rtt_us.median(),
                "us",
            ),
            Metric::new("driver.create_rtt_us_p95", prop.create_rtt_us.p(95.0), "us"),
            Metric::new(
                "driver.create_rtt_idle_ms",
                prop.create_rtt_idle_ms.median(),
                "ms",
            ),
            Metric::new("trace.visible_ms_p50", prop.visible_ms.median(), "ms"),
            Metric::new(
                "trace.visible_samples",
                prop.visible_ms.len() as f64,
                "count",
            ),
            Metric::new(
                "harness.ticker_late_ms_p99",
                prop.ticker_late.p99_ms(),
                "ms",
            ),
            Metric::new(
                "harness.creator_late_ms_p99",
                prop.creator_late.p99_ms(),
                "ms",
            ),
            Metric::new(
                "harness.ticks_skipped_share",
                prop.ticks_skipped as f64
                    / (prop.ticks_skipped + prop.ticker_late.count() as u64).max(1) as f64,
                "ratio",
            ),
        ]);
        // Report in the table's order, and exactly the table's names.
        let ordered: Vec<Metric> = metrics::PER_LAYER
            .iter()
            .filter_map(|d| m.iter().find(|x| x.name == d.name).cloned())
            .collect();
        if ordered.len() != metrics::PER_LAYER.len() || ordered.len() != m.len() {
            violations.push("per-layer metrics measured and declared differ".into());
        }
        ordered
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("visible_ms_p50", prop.visible_ms.median(), "ms"),
            Metric::new("visible_ms_p90", prop.visible_ms.p(90.0), "ms"),
            Metric::new("staleness_ms_p99", prop.staleness_ms.p(99.0), "ms"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ]
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        violations.push("a metric is not a finite number".into());
    }
    print_metrics(&metrics);
    println!(
        "  failed_share {:.6} ({} of {})",
        failed as f64 / attempted.max(1) as f64,
        failed,
        attempted
    );
    for v in &violations {
        println!("  OUTPUT CHECK FAILED: {v}");
    }

    if let (Some(path), false) = (&a.history, traced) {
        // The CPU-bound figures are per-layer metrics; the trajectory
        // keeps them beside the end-to-end ones all the same.
        let mut logged = metrics.clone();
        logged.extend([
            Metric::new("driver.ingest_per_s", ingest_per_s, "pkt/s"),
            Metric::new("reader.point_query_ns", prop.point_ns.p(25.0), "ns"),
            Metric::new("reader.scan_us", prop.scan_us.p(25.0), "us"),
        ]);
        let line = history_line(
            &[
                ("commit", a.commit.clone()),
                ("workload", w.name.into()),
                ("mode", if a.quick { "quick" } else { "full" }.into()),
            ],
            &[
                ("nproc", cores as f64),
                ("load_threads", LOAD_THREADS as f64),
                ("seed", a.seed as f64),
                ("seconds", seconds),
                ("correct", f64::from(u8::from(violations.is_empty()))),
                ("attempted", attempted as f64),
                ("failed", failed as f64),
            ],
            &logged,
        );
        let appended = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
            })
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("history: {path}: {e}");
        }
    }

    RunOutput {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

/// Run one (workload, trace) as a child of this binary; returns its
/// metrics as (name, value) and whether it passed its checks.
fn run_child(w: &Workload, a: &Args, traced: bool) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &a.seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    cmd.args(["--commit", &a.commit]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    if let Some(h) = &a.history {
        cmd.args(["--history", h]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    if !last.starts_with('{') {
        println!("{last}");
        return Err(format!(
            "{}: child printed no result (exit {:?})",
            w.name,
            out.status.code()
        ));
    }
    Ok((out.status.success(), scan_values(last)))
}

/// Pull `"name": {"value": v` pairs out of a result line this binary
/// wrote itself (the names carry no escapes).
fn scan_values(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let after = &rest[at + "\": {\"value\": ".len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

fn value_of(values: &[(String, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// A set of runs: children, then the summary tables.
fn run_set(a: &Args) -> bool {
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| {
            a.workload
                .as_deref()
                .is_none_or(|n| n == "all" || n == w.name)
        })
        .collect();
    let mut ok = true;
    if a.repeat > 0 {
        // N untraced sets of the same commit and seed; spread = (max -
        // min) / median, against each metric's own bound.
        let mut all: Vec<Vec<Vec<(String, f64)>>> = vec![Vec::new(); selected.len()];
        for set in 0..a.repeat {
            println!("#### set {} of {}", set + 1, a.repeat);
            for (i, w) in selected.iter().enumerate() {
                match run_child(w, a, false) {
                    Ok((passed, values)) => {
                        ok &= passed;
                        all[i].push(values);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
        println!("#### spread over {} sets (seed {})", a.repeat, a.seed);
        for (i, w) in selected.iter().enumerate() {
            println!("== {}", w.name);
            println!(
                "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
                "metric", "min", "median", "max", "spread", "bound"
            );
            for d in &metrics::END_TO_END {
                let mut s = Samples::default();
                for run in &all[i] {
                    if let Some(v) = value_of(run, d.name) {
                        s.push(v);
                    }
                }
                if s.is_empty() {
                    continue;
                }
                let (min, med, max) = (s.p(0.0001), s.median(), s.max());
                let spread = (max - min) / med.abs().max(f64::MIN_POSITIVE);
                let inside = spread <= d.bound;
                ok &= inside;
                println!(
                    "  {:<20} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}  {}",
                    d.name,
                    min,
                    med,
                    max,
                    spread,
                    d.bound,
                    if inside { "inside" } else { "OUTSIDE" },
                );
            }
        }
        return ok;
    }

    let traces: &[bool] = match a.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None if a.quick => &[false],
        None => &[false, true],
    };
    for w in &selected {
        let mut untraced = None;
        let mut traced_values = None;
        for &t in traces {
            match run_child(w, a, t) {
                Ok((passed, values)) => {
                    ok &= passed;
                    if t {
                        traced_values = Some(values);
                    } else {
                        untraced = Some(values);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        if let (Some(u), Some(t)) = (&untraced, &traced_values) {
            // Tracing overhead: the traced run's figure over the
            // untraced run's, for the figure both runs measure.
            if let (Some(base), Some(with)) = (
                value_of(u, "visible_ms_p50"),
                value_of(t, "trace.visible_ms_p50"),
            ) {
                println!("  trace.overhead_ratio.visible_ms_p50       {:>12.4} ratio  (traced {with:.4} / untraced {base:.4})", with / base);
            }
            if let (Some(sum), Some(base)) = (
                value_of(t, "stage.sum_ms_p50"),
                value_of(u, "visible_ms_p50"),
            ) {
                println!("  stage p50s sum / untraced visible_ms_p50   {:>12.4} ratio  ({sum:.4} / {base:.4})", sum / base);
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if a.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if nproc() < LOAD_THREADS {
        eprintln!(
            "error: {} core(s) for {LOAD_THREADS} load threads: the generator would measure itself",
            nproc()
        );
        return ExitCode::from(2);
    }
    let single = a
        .workload
        .as_deref()
        .filter(|n| *n != "all")
        .and_then(workload::find)
        .filter(|_| a.repeat == 0);
    match (single, a.trace) {
        (Some(w), Some(traced)) => {
            let out = run_one(w, &a, traced);
            println!(
                "{}",
                result_line(out.correct, out.attempted.max(1), out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            if run_set(&a) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
