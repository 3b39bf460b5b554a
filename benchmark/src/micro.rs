//! Per-layer micro timings of the traced run: single-threaded, on a
//! third directory pre-loaded like A and B, with the workload's own
//! packets.  Every timed call is one public product call reached
//! through `sut.rs`; the timers live here, outside the product.
//!
//! Runs after the runtime has shut down, so no agent thread competes for
//! the cores and the per-thread allocation counts are exact.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use crate::alloc_count;
use crate::fixture::{Rng, SessionSpec, KEYWORD, SPACE_BASE, SPACE_SIZE};
use crate::phases::World;
use crate::stats::{Metric, Samples};
use crate::sut::{self, BusLab, CacheLab, Disposition, Lab, Packet, TimerLab, UdpLab};
use crate::workload::Workload;

/// Median ns per operation over timed batches of `batch` calls, for
/// about `budget`.  `op` gets a running index.
fn batch_ns(budget: Duration, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_op = Samples::default();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        per_op.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if start.elapsed() >= budget {
            return per_op.median();
        }
    }
}

/// Each call timed on its own, for about `budget` (at least `min`
/// calls): the shape for slow operations and for tails.
fn each_ns(budget: Duration, min: usize, mut op: impl FnMut(usize)) -> Samples {
    let mut out = Samples::default();
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        let t = Instant::now();
        op(i);
        out.push(t.elapsed().as_nanos() as f64);
        i += 1;
    }
    out
}

/// Sessions no fixture has, four per origin from `first_origin` up, on
/// random groups of the space or (with `clash_with`) on the groups of
/// resident sessions.
fn extra_sessions(
    n: usize,
    first_origin: Ipv4Addr,
    rng: &mut Rng,
    clash_with: Option<&[SessionSpec]>,
) -> Vec<SessionSpec> {
    (0..n)
        .map(|k| SessionSpec {
            origin: Ipv4Addr::from(u32::from(first_origin) + (k / 4) as u32),
            id: 9_000_000 + k as u64,
            group: match clash_with {
                Some(residents) => residents[rng.below(residents.len() as u64) as usize].group,
                // A random group lands on a resident's now and then; the
                // disposition filter at the call site drops those.
                None => {
                    Ipv4Addr::from(u32::from(SPACE_BASE) + rng.below(u64::from(SPACE_SIZE)) as u32)
                }
            },
            ttl: rng.ttl(),
            name: rng.name(),
        })
        .collect()
}

/// Announce `specs` to the lab one timed call at a time, keep the
/// timings whose disposition is `want`, delete them all again, and
/// repeat for about `budget` (a governor may refuse later rounds).
fn announce_and_delete(
    lab: &mut Lab,
    specs: &[SessionSpec],
    want: Disposition,
    budget: Duration,
) -> Samples {
    let news: Vec<Packet> = specs.iter().map(Packet::announce).collect();
    let dels: Vec<Packet> = specs.iter().map(Packet::delete).collect();
    let mut ns = Samples::default();
    let start = Instant::now();
    for _round in 0..1_000 {
        for p in &news {
            let t = Instant::now();
            let d = lab.on_packet(p);
            let took = t.elapsed().as_nanos() as f64;
            if d == want {
                ns.push(took);
            }
        }
        for p in &dels {
            lab.on_packet(p);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    ns
}

pub fn run(w: &Workload, world: &World, budget_ns: u64, seed: u64) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| m.push(Metric::new(name, value, unit));
    // About forty probes share the budget; the builds come out of it too.
    let slice = Duration::from_nanos(budget_ns / 48).max(Duration::from_millis(2));
    let fx = &world.fx;
    let table = &world.table;
    let residents = table.residents();
    let n = residents.len();
    let mut rng = Rng::new(seed ^ 0x6d69_6372_6f21);
    // A scattered walk over the residents, like the stream's.
    let walk = |i: usize| (i.wrapping_mul(7_919)) % n;

    // ---- directory: the workload's own stream first, on a pristine lab ----
    let mut lab = Lab::build(fx, table, w.governor_max_entries);
    // Where the workload's stream itself brings new sessions and
    // clashes (`churn_30k`), their cost is taken from there: a clash
    // costs what it does because of the defences already pending.
    let (mut stream_new_ns, mut stream_clash_ns) = (Samples::default(), Samples::default());
    {
        let packets = (fx.cycle_len() * 2).clamp(20_000, 60_000);
        let before = alloc_count::events();
        let mut slow = 0u64;
        for (i, op) in fx.stream().take(packets).enumerate() {
            let t = Instant::now();
            let d = lab.on_packet(table.get(op));
            let ns = t.elapsed().as_nanos() as f64;
            match d {
                Disposition::Refreshed => {}
                Disposition::New => stream_new_ns.push(ns),
                Disposition::Clash => stream_clash_ns.push(ns),
                Disposition::Other => {}
            }
            slow += u64::from(d != Disposition::Refreshed);
            if i % 64 == 63 {
                // Due defences fire as they would between a driver's
                // receive batches.
                black_box(lab.poll());
            }
        }
        let allocs = alloc_count::events() - before;
        put(
            "directory.slow_path_share",
            slow as f64 / packets as f64,
            "ratio",
        );
        put(
            "directory.allocs_per_packet",
            allocs as f64 / packets as f64,
            "count",
        );
    }
    {
        let mut s = each_ns(slice * 2, 1_000, |i| {
            black_box(lab.on_packet(&residents[walk(i)]));
        });
        put("directory.on_packet_ns_p50", s.median(), "ns");
        put("directory.on_packet_ns_p99", s.p(99.0), "ns");
    }
    {
        if stream_new_ns.len() < 100 {
            let free = extra_sessions(512, Ipv4Addr::new(172, 31, 0, 1), &mut rng, None);
            stream_new_ns = announce_and_delete(&mut lab, &free, Disposition::New, slice);
        }
        put("directory.on_packet_new_ns", stream_new_ns.median(), "ns");
        if stream_clash_ns.len() < 100 {
            // On a resident's group: the third-party clash path.
            let clashing = extra_sessions(
                128,
                Ipv4Addr::new(172, 31, 128, 1),
                &mut rng,
                Some(&fx.residents),
            );
            stream_clash_ns = announce_and_delete(&mut lab, &clashing, Disposition::Clash, slice);
        }
        put(
            "directory.on_packet_clash_us",
            stream_clash_ns.median() / 1e3,
            "us",
        );
    }
    {
        // Telemetry on against off, alternating so drift cancels.
        let (mut on, mut off) = (Samples::default(), Samples::default());
        let start = Instant::now();
        let mut i = 0;
        while on.len() < 8 || start.elapsed() < slice * 2 {
            for enabled in [true, false] {
                lab.set_telemetry(enabled);
                let t = Instant::now();
                for _ in 0..2_048 {
                    black_box(lab.on_packet(&residents[walk(i)]));
                    i += 1;
                }
                let ns = t.elapsed().as_nanos() as f64 / 2_048.0;
                if enabled {
                    on.push(ns)
                } else {
                    off.push(ns)
                }
            }
        }
        lab.set_telemetry(true);
        put(
            "telemetry.overhead_ratio",
            on.median() / off.median().max(1e-9),
            "ratio",
        );
    }
    {
        let (mut create_us, mut announce_us) = (Samples::default(), Samples::default());
        let start = Instant::now();
        while create_us.len() < 10 || start.elapsed() < slice * 2 {
            let (name, ttl) = (rng.name(), rng.ttl());
            let t = Instant::now();
            let id = lab.create(&name, ttl);
            create_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            black_box(lab.poll());
            announce_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            if let Some(id) = id {
                lab.withdraw(id);
            }
        }
        put("directory.create_us", create_us.median(), "us");
        put("directory.poll_announce_us", announce_us.median(), "us");
        put(
            "directory.poll_idle_ns",
            batch_ns(slice, 256, |_| {
                black_box(lab.poll());
            }),
            "ns",
        );
        let mut view = each_ns(slice, 5, |_| {
            black_box(lab.current_view());
        });
        put("directory.current_view_us", view.median() / 1e3, "us");
        let mut alloc = each_ns(slice, 5, |_| {
            black_box(lab.allocate(63));
        });
        put("core.allocate_us", alloc.median() / 1e3, "us");
    }

    // ---- snapshot: write side, then read side ----
    {
        let mut capture_ns = Samples::default();
        let mut publish_ns = Samples::default();
        let mut rows = 0usize;
        let start = Instant::now();
        while capture_ns.len() < 5 || start.elapsed() < slice * 6 {
            let t = Instant::now();
            let snap = lab.capture();
            capture_ns.push(t.elapsed().as_nanos() as f64);
            rows = snap.rows();
            drop(snap);
            let t = Instant::now();
            lab.publish();
            publish_ns.push(t.elapsed().as_nanos() as f64);
        }
        let capture = capture_ns.median();
        put("snapshot.capture_ms", capture / 1e6, "ms");
        put(
            "snapshot.capture_ns_per_row",
            capture / rows.max(1) as f64,
            "ns",
        );
        // What `publish` costs beyond its capture: the pointer swap plus
        // reclaiming the snapshot it retires.
        put(
            "snapshot.publish_swap_ns",
            (publish_ns.median() - capture).max(0.0),
            "ns",
        );

        let mut reader = lab.reader();
        put(
            "snapshot.load_ns",
            batch_ns(slice, 1_024, |_| {
                black_box(reader.load().version());
            }),
            "ns",
        );
        let probes: Vec<(Ipv4Addr, u64, Ipv4Addr)> = (0..4_096)
            .map(|i| {
                let r = &fx.residents[rng.below(n as u64) as usize];
                let key = if i % 2 == 0 {
                    (r.origin, r.id)
                } else {
                    fx.absent_key(&mut rng)
                };
                let group =
                    Ipv4Addr::from(u32::from(SPACE_BASE) + rng.below(u64::from(SPACE_SIZE)) as u32);
                (key.0, key.1, group)
            })
            .collect();
        let snap = reader.load();
        put(
            "snapshot.get_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(snap.has(probes[i % 4_096].0, probes[i % 4_096].1));
            }),
            "ns",
        );
        put(
            "snapshot.group_in_use_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(snap.group_in_use(probes[i % 4_096].2));
            }),
            "ns",
        );
        let mut scan = each_ns(slice * 2, 5, |_| {
            black_box(snap.matching(KEYWORD));
        });
        put("snapshot.matching_us", scan.median() / 1e3, "us");
        drop(snap);
        // The reader path must not allocate: 1 000 passes of the query
        // mix, counted on this thread.
        let before = alloc_count::events();
        for i in 0..1_000usize {
            let snap = reader.load();
            let (o, id, g) = probes[i % 4_096];
            black_box(snap.has(o, id));
            black_box(snap.group_in_use(g));
            if i % 64 == 0 {
                black_box(snap.matching(KEYWORD));
            }
        }
        put(
            "snapshot.reader_allocs_per_1k",
            (alloc_count::events() - before) as f64,
            "count",
        );
    }
    drop(lab);

    // ---- wire and sdp ----
    {
        let sample: Vec<Vec<u8>> = (0..4_096).map(|i| residents[walk(i)].encode()).collect();
        let bytes: usize = sample.iter().map(Vec::len).sum();
        put(
            "wire.bytes_per_announce",
            bytes as f64 / sample.len() as f64,
            "B",
        );
        put(
            "wire.decode_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(sut::decode_frame(&sample[i % 4_096]));
            }),
            "ns",
        );
        put(
            "wire.decode_owned_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(sut::decode_owned(&sample[i % 4_096]));
            }),
            "ns",
        );
        put(
            "wire.encode_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(residents[walk(i)].encode_len());
            }),
            "ns",
        );
        put(
            "sdp.parse_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(residents[walk(i)].parse().is_some());
            }),
            "ns",
        );
        put(
            "sdp.format_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(sut::format_sdp(&fx.residents[walk(i)]));
            }),
            "ns",
        );
    }

    // ---- cache ----
    {
        let mut cache = CacheLab::build(table);
        let parsed: Vec<_> = (0..8_192)
            .filter_map(|i| residents[walk(i)].parse())
            .collect();
        put(
            "cache.refresh_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(cache.observe(&parsed[i % parsed.len()]));
            }),
            "ns",
        );
        let specs = extra_sessions(4_096, Ipv4Addr::new(172, 31, 0, 1), &mut rng, None);
        let news: Vec<Packet> = specs.iter().map(Packet::announce).collect();
        let new_parsed: Vec<_> = news.iter().filter_map(Packet::parse).collect();
        let (mut admit, mut delete) = (Samples::default(), Samples::default());
        let start = Instant::now();
        while admit.len() < 3 || start.elapsed() < slice * 2 {
            let t = Instant::now();
            for d in &new_parsed {
                black_box(cache.observe(d));
            }
            admit.push(t.elapsed().as_nanos() as f64 / new_parsed.len() as f64);
            let t = Instant::now();
            for s in &specs {
                black_box(cache.delete(s.origin, s.id));
            }
            delete.push(t.elapsed().as_nanos() as f64 / specs.len() as f64);
        }
        put("cache.admit_ns", admit.median(), "ns");
        put("cache.delete_ns", delete.median(), "ns");
        put(
            "cache.get_ns",
            batch_ns(slice, 1_024, |i| {
                let r = &fx.residents[walk(i)];
                black_box(cache.has(r.origin, r.id));
            }),
            "ns",
        );
        put(
            "cache.probe_ns",
            batch_ns(slice, 1_024, |i| {
                black_box(cache.group_in_use(fx.residents[walk(i)].group));
            }),
            "ns",
        );
    }

    // ---- timer queue ----
    {
        let mut timers = TimerLab::new();
        let (mut schedule, mut drain) = (Samples::default(), Samples::default());
        let start = Instant::now();
        let mut base = 0u64;
        while schedule.len() < 3 || start.elapsed() < slice {
            let dues: Vec<(usize, u64)> = (0..1_024)
                .map(|_| (rng.below(5) as usize, base + rng.below(1_000_000)))
                .collect();
            let t = Instant::now();
            for (k, &(shard, due)) in dues.iter().enumerate() {
                timers.schedule(shard, due, k as u64);
            }
            schedule.push(t.elapsed().as_nanos() as f64 / 1_024.0);
            base += 1_000_000;
            let t = Instant::now();
            let fired = timers.drain_due(base);
            drain.push(t.elapsed().as_nanos() as f64 / fired.max(1) as f64);
        }
        put("timer.schedule_ns", schedule.median(), "ns");
        put("timer.drain_due_ns", drain.median(), "ns");
    }

    // ---- bus ----
    {
        let bus = BusLab::new();
        let (mut send, mut recv) = (Samples::default(), Samples::default());
        let mut allocs = 0u64;
        let mut sends = 0u64;
        let start = Instant::now();
        let mut i = 0;
        while send.len() < 3 || start.elapsed() < slice * 2 {
            let before = alloc_count::events();
            let t = Instant::now();
            for _ in 0..256 {
                bus.send(&residents[walk(i)]);
                i += 1;
            }
            send.push(t.elapsed().as_nanos() as f64 / 256.0);
            allocs += alloc_count::events() - before;
            sends += 256;
            let t = Instant::now();
            for _ in 0..256 {
                black_box(bus.recv(0));
                black_box(bus.recv(1));
            }
            recv.push(t.elapsed().as_nanos() as f64 / 512.0);
        }
        put("bus.send_ns", send.median(), "ns");
        put("bus.recv_ns", recv.median(), "ns");
        put("bus.allocs_per_send", allocs as f64 / sends as f64, "count");
    }

    // ---- real UDP, one socket hearing itself ----
    {
        // A port of this process's own, so concurrent runs cannot collide.
        let port = 20_000 + (std::process::id() % 20_000) as u16;
        let (mut send_us, mut recv_us) = (Samples::default(), Samples::default());
        let (mut sent, mut lost) = (0u64, 0u64);
        let socket = UdpLab::open(port);
        if let Some(udp) = &socket {
            let start = Instant::now();
            while sent < 20_000 && start.elapsed() < slice * 4 && lost < 50 {
                let t = Instant::now();
                if !udp.send(&residents[walk(sent as usize)]) {
                    break;
                }
                send_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                sent += 1;
                let t = Instant::now();
                if udp.recv(Duration::from_millis(20)) {
                    recv_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                } else {
                    lost += 1;
                }
            }
        }
        // A socket that opens but hears nothing is not a usable scope.
        let usable = !recv_us.is_empty();
        put("net.udp_available", f64::from(u8::from(usable)), "count");
        put(
            "net.send_us",
            if usable { send_us.median() } else { 0.0 },
            "us",
        );
        put(
            "net.recv_us",
            if usable { recv_us.median() } else { 0.0 },
            "us",
        );
        put(
            "net.loss_share",
            if usable {
                lost as f64 / sent as f64
            } else {
                0.0
            },
            "ratio",
        );
    }
    m
}
