//! Cross-crate integration tests: the full pipeline from topology
//! generation through SAP announcement to allocation and clash
//! recovery, exercised end to end.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use sdalloc::core::{AdaptiveIpr, AddrSpace, Allocator, InformedRandomAllocator};
use sdalloc::experiments::fill::fill_until_clash;
use sdalloc::experiments::world::World;
use sdalloc::sap::directory::{DirectoryConfig, DirectoryEvent};
use sdalloc::sap::sdp::Media;
use sdalloc::sap::testbed::Testbed;
use sdalloc::sim::{Channel, SimDuration, SimRng, SimTime};
use sdalloc::topology::mbone::{MboneMap, MboneParams};
use sdalloc::topology::workload::TtlDistribution;

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

#[test]
fn mbone_fill_pipeline_all_algorithms() {
    // Topology generation → scope caching → visibility → allocation,
    // for every algorithm family in one go.
    let map = MboneMap::generate(&MboneParams {
        seed: 21,
        target_nodes: 250,
    });
    let dist = TtlDistribution::ds3();
    let algorithms: Vec<Box<dyn Allocator>> = vec![
        Box::new(InformedRandomAllocator),
        Box::new(sdalloc::core::StaticIpr::seven_band()),
        Box::new(AdaptiveIpr::aipr1()),
        Box::new(AdaptiveIpr::hybrid()),
    ];
    let mut world = World::new(map.topo.clone(), AddrSpace::abstract_space(300));
    for alg in &algorithms {
        let mut rng = SimRng::new(5);
        let n = fill_until_clash(&mut world, alg.as_ref(), &dist, &mut rng, 2_400);
        assert!(n >= 5, "{} managed only {n} allocations", alg.name());
    }
}

#[test]
fn ten_directories_converge_without_persistent_clashes() {
    // Ten SAP directories on one lossy scope, each creating sessions at
    // staggered times; after the dust settles no two sessions of
    // overlapping scope share an address.  (All directories share one
    // flat scope here, so *any* two sessions overlap.)
    let configs: Vec<DirectoryConfig> = (0..10)
        .map(|i| {
            let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 1, 1 + i as u8));
            cfg.space = AddrSpace::abstract_space(64);
            cfg
        })
        .collect();
    let mut tb = Testbed::new(
        configs,
        || Box::new(AdaptiveIpr::aipr1()),
        Channel {
            loss: sdalloc::sim::LossModel::new(0.02),
            delay: sdalloc::sim::DelayModel::Constant(SimDuration::from_millis(120)),
        },
        99,
    );
    for node in 0..10 {
        let now = tb.now();
        let mut rng = SimRng::new(1_000 + node as u64);
        let ttl = [15u8, 63, 127, 191][node % 4];
        tb.directory_mut(node)
            .create_session(now, &format!("session-{node}"), ttl, media(), &mut rng)
            .unwrap();
        tb.kick(node);
        let horizon = tb.now() + SimDuration::from_secs(7);
        tb.run_until(horizon);
    }
    // Let recovery finish.
    let horizon = tb.now() + SimDuration::from_secs(1_300);
    tb.run_until(horizon);

    let mut groups = Vec::new();
    for node in 0..10 {
        for (_, s) in tb.directory(node).own_sessions() {
            groups.push(s.desc.group);
        }
    }
    let distinct: HashSet<_> = groups.iter().collect();
    assert_eq!(
        distinct.len(),
        groups.len(),
        "post-recovery sessions still share addresses: {groups:?}"
    );
}

#[test]
fn directory_cache_matches_announced_population() {
    // Whatever one directory announces, every unpartitioned peer's
    // cache converges to it.
    let configs: Vec<DirectoryConfig> = (0..4)
        .map(|i| {
            let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 2, 1 + i as u8));
            cfg.space = AddrSpace::abstract_space(128);
            cfg
        })
        .collect();
    let mut tb = Testbed::new(
        configs,
        || Box::new(InformedRandomAllocator),
        Channel::perfect(SimDuration::from_millis(30)),
        7,
    );
    let mut rng = SimRng::new(17);
    for k in 0..5 {
        let now = tb.now();
        tb.directory_mut(0)
            .create_session(now, &format!("s{k}"), 127, media(), &mut rng)
            .unwrap();
    }
    tb.kick(0);
    tb.run_until(SimTime::from_secs(10));
    for node in 1..4 {
        assert_eq!(
            tb.directory(node).cached_sessions(),
            5,
            "node {node} cache incomplete"
        );
    }
    // Withdraw two sessions; deletions propagate.
    let ids: Vec<u64> = tb
        .directory(0)
        .own_sessions()
        .map(|(id, _)| *id)
        .take(2)
        .collect();
    for id in ids {
        if let Some(del) = tb.directory_mut(0).withdraw_session(id) {
            // Deliver the deletion by hand through the testbed's channel:
            // simplest is to ask each peer to handle it directly.
            for node in 1..4 {
                let now = tb.now();
                let mut rng = SimRng::new(23);
                tb.directory_mut(node).on_packet(now, &del, &mut rng);
            }
        }
    }
    for node in 1..4 {
        assert_eq!(tb.directory(node).cached_sessions(), 3);
    }
}

#[test]
fn third_party_defence_repairs_deaf_originator() {
    // A (node 0) announces, then goes deaf (partitioned from everyone).
    // B (node 1) later picks the same address.  C (node 2) hears both
    // and must defend A's session so that B moves.
    let configs: Vec<DirectoryConfig> = (0..3)
        .map(|i| {
            let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 3, 1 + i as u8));
            cfg.space = AddrSpace::abstract_space(2);
            cfg
        })
        .collect();
    let mut tb = Testbed::new(
        configs,
        || Box::new(InformedRandomAllocator),
        Channel::perfect(SimDuration::from_millis(40)),
        13,
    );
    // B never hears A (partitioned from the start), so B's informed
    // allocator can land on A's address.
    tb.partition(0, 1);

    let mut rng_a = SimRng::new(31);
    let now = tb.now();
    tb.directory_mut(0)
        .create_session(now, "alpha", 127, media(), &mut rng_a)
        .unwrap();
    let group_a = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
    tb.kick(0);
    tb.run_until(SimTime::from_secs(2));
    assert_eq!(tb.directory(2).cached_sessions(), 1, "C must cache alpha");

    // Now A also goes deaf to C: only the third party can defend it.
    tb.partition(0, 2);

    // B allocates blindly until it lands on A's address.
    let mut rng_b = SimRng::new(37);
    loop {
        let now = tb.now();
        let id = tb
            .directory_mut(1)
            .create_session(now, "beta", 127, media(), &mut rng_b)
            .unwrap();
        let g = tb
            .directory(1)
            .own_sessions()
            .find(|(i, _)| **i == id)
            .unwrap()
            .1
            .desc
            .group;
        if g == group_a {
            break;
        }
        tb.directory_mut(1).withdraw_session(id);
    }
    tb.kick(1);
    let horizon = tb.now() + SimDuration::from_secs(60);
    tb.run_until(horizon);

    // C must have armed (and possibly fired) a third-party defence, and
    // B must have moved off A's address.
    let beta_group = tb
        .directory(1)
        .own_sessions()
        .find(|(_, s)| s.desc.name == "beta")
        .unwrap()
        .1
        .desc
        .group;
    assert_ne!(beta_group, group_a, "B must move off the defended address");
    let c_defended = tb.log.iter().any(|e| {
        e.node == 2
            && matches!(
                e.event,
                DirectoryEvent::Clash {
                    action: sdalloc::core::ClashAction::ThirdPartyArmed { .. },
                    ..
                }
            )
    });
    assert!(
        c_defended,
        "C never armed a third-party defence: {:?}",
        tb.log
    );
}
