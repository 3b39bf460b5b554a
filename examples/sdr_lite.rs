//! sdr-lite: a real session directory over UDP multicast.
//!
//! Joins a SAP group on the local network, announces a session with an
//! AIPRMA-allocated address, and prints every session it discovers —
//! the same announce/listen loop sdr ran on the Mbone.  The agent is
//! the runtime's [`AgentDriver`] over a [`SapSocket`], stepped from this
//! thread (`Runtime::spawn` would give it a thread of its own).
//!
//! Run two instances side by side to watch them discover each other
//! (multicast loopback is enabled, so one machine is enough):
//!
//! ```text
//! cargo run --example sdr_lite -- --name "team meeting" --ttl 63
//! cargo run --example sdr_lite -- --listen
//! ```
//!
//! By default it uses an administratively-scoped test group
//! (239.195.255.250:9875) rather than the real Mbone SAP group.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdalloc::core::AdaptiveIpr;
use sdalloc::runtime::{AgentDriver, DriverConfig, WallClock};
use sdalloc::sap::directory::DirectoryConfig;
use sdalloc::sap::net::SapSocket;
use sdalloc::sap::sdp::Media;

fn main() {
    let mut name: Option<String> = None;
    let mut ttl: u8 = 15;
    let mut seconds: u64 = 30;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--name" => name = args.next(),
            "--ttl" => ttl = args.next().and_then(|v| v.parse().ok()).unwrap_or(15),
            "--seconds" => seconds = args.next().and_then(|v| v.parse().ok()).unwrap_or(30),
            "--listen" => name = None,
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: sdr_lite [--name <session name> --ttl <ttl>] [--listen] [--seconds N]"
                );
                std::process::exit(2);
            }
        }
    }

    let group = Ipv4Addr::new(239, 195, 255, 250);
    let port = 9875;
    let socket = match SapSocket::open(group, port, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot join multicast group {group}:{port}: {e}");
            eprintln!("(multicast may be unavailable in this environment)");
            std::process::exit(1);
        }
    };
    println!("joined {group}:{port}");

    let host = Ipv4Addr::new(127, 0, 0, 1);
    let cfg = DirectoryConfig::new(host);
    let seed = std::process::id() as u64;
    let mut agent = AgentDriver::new(
        0,
        seed,
        cfg,
        Box::new(AdaptiveIpr::aipr3()),
        socket,
        Arc::new(WallClock::new()),
        DriverConfig::default(),
    );

    if let Some(session_name) = &name {
        let media = vec![Media {
            kind: "audio".into(),
            port: 49_170,
            proto: "RTP/AVP".into(),
            format: 0,
        }];
        match agent.create_session(session_name, ttl, media) {
            Ok(id) => {
                let group = agent
                    .directory()
                    .own_sessions()
                    .find(|(sid, _)| **sid == id)
                    .map(|(_, s)| s.desc.group)
                    .expect("just created");
                println!("announcing '{session_name}' (TTL {ttl}) on {group}");
            }
            Err(e) => {
                eprintln!("could not allocate an address: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!("listening for session announcements…");
    }

    let start = Instant::now();
    let mut last_report = 0usize;
    while start.elapsed() < Duration::from_secs(seconds) {
        if let Err(e) = agent.step() {
            eprintln!("socket error: {e}");
            break;
        }
        let cached = agent.directory().cached_sessions();
        if cached != last_report {
            last_report = cached;
            println!("--- directory now holds {cached} remote session(s) ---");
            for (key, entry) in agent.directory().cache().iter() {
                println!(
                    "  '{}' on {}/{} (from {}, v{})",
                    entry.name(),
                    entry.group(),
                    entry.ttl(),
                    key.origin,
                    entry.version()
                );
            }
        }
    }
    let exit = agent.into_exit(None);
    println!("done: {} session(s) cached", exit.cached_sessions);
    print!("{}", exit.runtime_telemetry);
}
