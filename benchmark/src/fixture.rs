//! Seeded fixture generator: the resident session set, the background
//! packet stream of each workload, and the ledger that says what an
//! agent's cache must hold after any prefix of that stream.
//!
//! Everything here is plain data.  Turning a [`SessionSpec`] into a
//! packet is `sut.rs`'s job, so this file does not change when the
//! product's API does — and the product's RNG is deliberately not used,
//! so a change to it cannot change the benchmark's inputs.

use std::net::Ipv4Addr;

/// The address space both agents allocate from: 224.2.0.0 + 2^18.
pub const SPACE_BASE: Ipv4Addr = Ipv4Addr::new(224, 2, 0, 0);
pub const SPACE_SIZE: u32 = 1 << 18;

/// The agents' own unicast addresses (no fixture session uses 10.255/16).
pub const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 1);
pub const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 2);
pub const HOST_MICRO: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 3);

/// Sessions announced by one origin host.
pub const SESSIONS_PER_ORIGIN: usize = 4;
/// The paper's ds2 TTL list (Figure 5): all four TTL bands, low TTLs
/// weighted double.
pub const DS2_TTLS: [u8; 9] = [1, 1, 15, 15, 31, 47, 63, 127, 191];

/// Distinct sessions the churn stream cycles through (divisible by 15
/// so the 13:2 free:clash split is exact).
const CHURN_POOL: usize = 16_380;
/// Forged-session sources and ids per source in the storm stream.
pub const HOSTILE_SOURCES: usize = 32;
const FORGED_IDS_PER_SOURCE: usize = 2_048;
const BIG_NAMES: usize = 256;
const UNPARSEABLE: usize = 64;
/// Session ids at or above this are never used by a fixture session:
/// the "absent key" half of the query mix draws from here.
pub const ABSENT_ID_BASE: u64 = 1 << 40;

const WORDS: [&str; 48] = [
    "jazz",
    "live",
    "seminar",
    "lecture",
    "radio",
    "space",
    "shuttle",
    "mission",
    "audio",
    "video",
    "research",
    "group",
    "weekly",
    "meeting",
    "network",
    "multicast",
    "workshop",
    "concert",
    "opera",
    "news",
    "channel",
    "campus",
    "physics",
    "colloquium",
    "systems",
    "reading",
    "club",
    "global",
    "forum",
    "student",
    "council",
    "telescope",
    "feed",
    "ocean",
    "survey",
    "arctic",
    "station",
    "library",
    "talk",
    "demo",
    "session",
    "directory",
    "launch",
    "control",
    "weather",
    "briefing",
    "orchestra",
    "rehearsal",
];

/// The two-word keyword the scan query searches for.
pub const KEYWORD: &str = "jazz live";

/// SplitMix64: small, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0); the modulo bias at 64 bits is
    /// far below anything a benchmark can see.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    pub fn ttl(&mut self) -> u8 {
        DS2_TTLS[self.below(DS2_TTLS.len() as u64) as usize]
    }

    /// A session name of 2–4 vocabulary words.
    pub fn name(&mut self) -> String {
        let words = 2 + self.below(3) as usize;
        let mut out = String::new();
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[self.below(WORDS.len() as u64) as usize]);
        }
        out
    }
}

/// One announced session (origin version is always 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    pub origin: Ipv4Addr,
    pub id: u64,
    pub group: Ipv4Addr,
    pub ttl: u8,
    pub name: String,
}

/// A SAP announcement whose payload is not a session description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpec {
    pub source: Ipv4Addr,
    pub payload: String,
}

/// Which background stream a workload plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 100 % refreshes of resident sessions.
    Steady,
    /// 70 % refresh, 13 % new on free groups, 2 % new on a resident's
    /// group (third-party clash), 15 % deletes.
    Churn,
    /// 25 % legitimate refreshes, 75 % hostile (forged new sessions,
    /// unparseable payloads, 1 kB names).
    Storm,
}

/// One position of the cyclic stream template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Refresh,
    PoolNew(u32),
    PoolDelete(u32),
    Forged,
    Unparseable,
    BigName,
}

/// One background packet, as an index into the fixture's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Refresh(u32),
    PoolNew(u32),
    PoolDelete(u32),
    Forged(u32),
    Unparseable(u32),
    BigName(u32),
}

#[derive(Debug, Clone)]
pub struct Fixture {
    pub kind: Kind,
    pub residents: Vec<SessionSpec>,
    /// Churn only: the sessions the stream creates and deletes.  The
    /// first `pool_clash_from` take free groups, the rest take the
    /// group of a resident session of another origin.
    pub pool: Vec<SessionSpec>,
    pub pool_clash_from: usize,
    /// Churn only: pool sessions already live before the first packet.
    pub pool_live_at_start: Vec<u32>,
    /// Storm only.
    pub forged: Vec<SessionSpec>,
    pub big_names: Vec<SessionSpec>,
    pub unparseable: Vec<RawSpec>,
    cycle: Vec<Slot>,
    refresh_stride: u32,
}

fn space_ip(index: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(SPACE_BASE) + index)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Fixture {
    /// Generate the fixture for `kind` with `residents` resident
    /// sessions.  Same arguments, same fixture, byte for byte.
    pub fn generate(kind: Kind, residents: usize, seed: u64) -> Fixture {
        assert!(residents >= SESSIONS_PER_ORIGIN, "need at least one origin");
        assert!(
            residents + CHURN_POOL < SPACE_SIZE as usize,
            "the clash-free layout needs a free group per session"
        );
        let mut rng = Rng::new(seed);
        // Groups are a seeded permutation of the space: residents take
        // the first `n` positions, so no two residents share a group,
        // and everything "free" comes from the remainder.
        let mut perm: Vec<u32> = (0..SPACE_SIZE).collect();
        rng.shuffle(&mut perm);
        let (resident_groups, free_groups) = perm.split_at(residents);

        let resident_specs: Vec<SessionSpec> = (0..residents)
            .map(|i| SessionSpec {
                origin: Ipv4Addr::from(0x0a00_0001 + (i / SESSIONS_PER_ORIGIN) as u32),
                // Random 20-bit stamp, made unique within the origin by
                // the slot in the low bits.
                id: rng.below(1 << 20) * SESSIONS_PER_ORIGIN as u64
                    + (i % SESSIONS_PER_ORIGIN) as u64,
                group: space_ip(resident_groups[i]),
                ttl: rng.ttl(),
                name: rng.name(),
            })
            .collect();

        // A stride coprime to the resident count visits every resident
        // once per `residents` refreshes, in a scattered order.
        let mut stride = (residents as u64 * 618 / 1000).max(1);
        while gcd(stride, residents as u64) != 1 {
            stride += 1;
        }

        let mut fx = Fixture {
            kind,
            residents: resident_specs,
            pool: Vec::new(),
            pool_clash_from: 0,
            pool_live_at_start: Vec::new(),
            forged: Vec::new(),
            big_names: Vec::new(),
            unparseable: Vec::new(),
            cycle: vec![Slot::Refresh],
            refresh_stride: stride as u32,
        };
        match kind {
            Kind::Steady => {}
            Kind::Churn => fx.build_churn(&mut rng, free_groups),
            Kind::Storm => fx.build_storm(&mut rng, free_groups),
        }
        fx
    }

    fn build_churn(&mut self, rng: &mut Rng, free_groups: &[u32]) {
        let free = CHURN_POOL / 15 * 13;
        self.pool_clash_from = free;
        let n_res = self.residents.len() as u64;
        for k in 0..CHURN_POOL {
            let origin = Ipv4Addr::from(0xac10_0001 + (k / SESSIONS_PER_ORIGIN) as u32);
            let group = match free_groups.get(k).filter(|_| k < free) {
                Some(&g) => space_ip(g),
                None => self.residents[rng.below(n_res) as usize].group,
            };
            self.pool.push(SessionSpec {
                origin,
                id: 5_000 + k as u64,
                group,
                ttl: rng.ttl(),
                name: rng.name(),
            });
        }
        // The cycle is `blocks` blocks of 100 packets.  Block b
        // announces 13 free + 2 clashing pool sessions and deletes the
        // 15 that block b - lag announced, so the live pool population
        // is constant at every block boundary and the ledger after one
        // whole cycle equals the ledger before it.
        let blocks = CHURN_POOL / 15;
        let lag = blocks / 2;
        let clash = CHURN_POOL - free;
        debug_assert_eq!((free / 13, clash / 2), (blocks, blocks));
        let news = |b: usize| {
            (0..13)
                .map(move |j| (b * 13 + j) as u32)
                .chain((0..2).map(move |j| (free + b * 2 + j) as u32))
        };
        self.cycle.clear();
        for b in 0..blocks {
            let mut block: Vec<Slot> = vec![Slot::Refresh; 70];
            block.extend(news(b).map(Slot::PoolNew));
            block.extend(news((b + blocks - lag) % blocks).map(Slot::PoolDelete));
            rng.shuffle(&mut block);
            self.cycle.extend(block);
        }
        for b in blocks - lag..blocks {
            self.pool_live_at_start.extend(news(b));
        }
    }

    fn build_storm(&mut self, rng: &mut Rng, free_groups: &[u32]) {
        let hostile_source = |s: usize| Ipv4Addr::new(192, 168, 66, 1 + s as u8);
        for j in 0..HOSTILE_SOURCES * FORGED_IDS_PER_SOURCE {
            self.forged.push(SessionSpec {
                origin: hostile_source(j % HOSTILE_SOURCES),
                id: 1 + (j / HOSTILE_SOURCES) as u64,
                // Free groups only: clash share is a workload
                // parameter, never an accident of the forgery.
                group: space_ip(free_groups[j % free_groups.len()]),
                ttl: rng.ttl(),
                name: rng.name(),
            });
        }
        for j in 0..BIG_NAMES {
            let mut name = String::with_capacity(1_000);
            while name.len() < 1_000 {
                name.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
                name.push(' ');
            }
            name.truncate(1_000);
            self.big_names.push(SessionSpec {
                origin: hostile_source(j % HOSTILE_SOURCES),
                id: 1_000_000 + j as u64,
                group: space_ip(free_groups[(j * 7 + 3) % free_groups.len()]),
                ttl: rng.ttl(),
                name,
            });
        }
        for j in 0..UNPARSEABLE {
            let source = Ipv4Addr::new(192, 168, 77, 1 + (j % 200) as u8);
            let payload = match j % 5 {
                0 => format!("not a session description #{j}"),
                1 => format!("v=0\r\no=- {j} 1 IN IP4 {source}\r\ns=truncated"),
                2 => format!("v=1\r\no=- {j} 1 IN IP4 {source}\r\ns=bad version\r\nc=IN IP4 224.2.1.1/63\r\nt=0 0\r\n"),
                3 => format!("v=0\r\no=- {j} 1 IN IP4 {source}\r\ns=unicast group\r\nc=IN IP4 10.1.2.3/63\r\nt=0 0\r\n"),
                _ => format!("v=0\r\no=- {j} one IN IP4 {source}\r\ns=bad number\r\nc=IN IP4 224.2.1.1/63\r\nt=0 0\r\n"),
            };
            self.unparseable.push(RawSpec { source, payload });
        }
        // Per 8 packets: 2 legitimate refreshes and 6 hostile — at the
        // open-loop rate that is 2 000/s legitimate beside 6 000/s hostile.
        self.cycle = vec![
            Slot::Refresh,
            Slot::Forged,
            Slot::Forged,
            Slot::Unparseable,
            Slot::Refresh,
            Slot::Forged,
            Slot::Forged,
            Slot::BigName,
        ];
    }

    /// Packets in one cycle of the stream template.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// A key no fixture session has, for the "absent" half of the
    /// point-query mix.
    pub fn absent_key(&self, rng: &mut Rng) -> (Ipv4Addr, u64) {
        let r = &self.residents[rng.below(self.residents.len() as u64) as usize];
        (r.origin, ABSENT_ID_BASE + rng.below(1 << 20))
    }

    pub fn stream(&self) -> Stream<'_> {
        Stream {
            fx: self,
            pos: 0,
            refresh: 0,
            forged: 0,
            unparseable: 0,
            big_name: 0,
        }
    }

    pub fn ledger(&self) -> Ledger {
        let mut pool_live = vec![false; self.pool.len()];
        for &k in &self.pool_live_at_start {
            pool_live[k as usize] = true;
        }
        Ledger { pool_live }
    }
}

/// The endless background stream: the cycle template with its refresh
/// and hostile cursors resolved to table indices.
#[derive(Debug, Clone)]
pub struct Stream<'a> {
    fx: &'a Fixture,
    pos: usize,
    refresh: u64,
    forged: usize,
    unparseable: usize,
    big_name: usize,
}

impl Iterator for Stream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let slot = self.fx.cycle[self.pos];
        self.pos = (self.pos + 1) % self.fx.cycle.len();
        Some(match slot {
            Slot::Refresh => {
                let n = self.fx.residents.len() as u64;
                let i = (self.refresh * u64::from(self.fx.refresh_stride)) % n;
                self.refresh = (self.refresh + 1) % n;
                Op::Refresh(i as u32)
            }
            Slot::PoolNew(k) => Op::PoolNew(k),
            Slot::PoolDelete(k) => Op::PoolDelete(k),
            Slot::Forged => {
                let i = self.forged;
                self.forged = (i + 1) % self.fx.forged.len();
                Op::Forged(i as u32)
            }
            Slot::Unparseable => {
                let i = self.unparseable;
                self.unparseable = (i + 1) % self.fx.unparseable.len();
                Op::Unparseable(i as u32)
            }
            Slot::BigName => {
                let i = self.big_name;
                self.big_name = (i + 1) % self.fx.big_names.len();
                Op::BigName(i as u32)
            }
        })
    }
}

/// What an agent that heard every packet sent so far must hold, beside
/// the residents: the generator's side of the output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    pool_live: Vec<bool>,
}

impl Ledger {
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::PoolNew(k) => self.pool_live[k as usize] = true,
            Op::PoolDelete(k) => self.pool_live[k as usize] = false,
            Op::Refresh(_) | Op::Forged(_) | Op::Unparseable(_) | Op::BigName(_) => {}
        }
    }

    pub fn pool_is_live(&self, k: usize) -> bool {
        self.pool_live[k]
    }

    pub fn pool_live_count(&self) -> usize {
        self.pool_live.iter().filter(|&&l| l).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut;
    use std::collections::HashSet;

    fn stream_bytes(fx: &Fixture, packets: usize) -> Vec<u8> {
        let table = sut::PacketTable::build(fx);
        let mut out = Vec::new();
        for op in fx.stream().take(packets) {
            out.extend_from_slice(&table.get(op).encode());
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for kind in [Kind::Steady, Kind::Churn, Kind::Storm] {
            let a = Fixture::generate(kind, 2_000, 11);
            let b = Fixture::generate(kind, 2_000, 11);
            let c = Fixture::generate(kind, 2_000, 12);
            let bytes = stream_bytes(&a, 3_000);
            assert!(!bytes.is_empty());
            assert_eq!(bytes, stream_bytes(&b, 3_000), "{kind:?}: same seed");
            assert_ne!(bytes, stream_bytes(&c, 3_000), "{kind:?}: other seed");
        }
    }

    #[test]
    fn resident_set_is_clash_free_with_unique_keys() {
        let fx = Fixture::generate(Kind::Steady, 100_000, 3);
        let groups: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.group).collect();
        assert_eq!(groups.len(), fx.residents.len(), "one group per resident");
        let keys: HashSet<(Ipv4Addr, u64)> =
            fx.residents.iter().map(|s| (s.origin, s.id)).collect();
        assert_eq!(keys.len(), fx.residents.len(), "unique (origin, id)");
        let lo = u32::from(SPACE_BASE);
        assert!(groups
            .iter()
            .all(|g| (lo..lo + SPACE_SIZE).contains(&u32::from(*g))));
        // Four sessions per origin, all four TTL bands present, names of 2–4 words.
        let origins: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.origin).collect();
        assert_eq!(origins.len(), fx.residents.len() / SESSIONS_PER_ORIGIN);
        let bands: HashSet<u8> = fx
            .residents
            .iter()
            .map(|s| match s.ttl {
                0..=15 => 0,
                16..=63 => 1,
                64..=127 => 2,
                _ => 3,
            })
            .collect();
        assert_eq!(bands.len(), 4);
        assert!(fx
            .residents
            .iter()
            .all(|s| (2..=4).contains(&s.name.split(' ').count())));
        assert!(fx.residents.iter().any(|s| s.name.contains(KEYWORD)));
    }

    #[test]
    fn steady_stream_refreshes_every_resident_once_per_round() {
        let fx = Fixture::generate(Kind::Steady, 1_000, 5);
        let seen: HashSet<u32> = fx
            .stream()
            .take(1_000)
            .map(|op| match op {
                Op::Refresh(i) => i,
                other => panic!("steady stream produced {other:?}"),
            })
            .collect();
        assert_eq!(seen.len(), 1_000);
    }

    #[test]
    fn churn_stream_is_cyclic_and_hits_its_mix() {
        let fx = Fixture::generate(Kind::Churn, 20_000, 9);
        let start = fx.ledger();
        let mut ledger = fx.ledger();
        let (mut refresh, mut free, mut clash, mut delete) = (0usize, 0usize, 0usize, 0usize);
        let mut live_min = usize::MAX;
        let mut live_max = 0;
        for (n, op) in fx.stream().take(fx.cycle_len()).enumerate() {
            match op {
                Op::Refresh(_) => refresh += 1,
                Op::PoolNew(k) if (k as usize) < fx.pool_clash_from => {
                    assert!(!ledger.pool_is_live(k as usize), "announced while live");
                    free += 1;
                }
                Op::PoolNew(k) => {
                    assert!(!ledger.pool_is_live(k as usize), "announced while live");
                    clash += 1;
                }
                Op::PoolDelete(k) => {
                    assert!(ledger.pool_is_live(k as usize), "deleted while absent");
                    delete += 1;
                }
                other => panic!("churn stream produced {other:?}"),
            }
            ledger.apply(op);
            if n % 100 == 99 {
                live_min = live_min.min(ledger.pool_live_count());
                live_max = live_max.max(ledger.pool_live_count());
            }
        }
        assert_eq!(
            ledger.pool_live, start.pool_live,
            "ledger after one cycle == at start"
        );
        assert_eq!(
            live_min, live_max,
            "resident count is stationary at block boundaries"
        );
        let total = fx.cycle_len() as f64;
        for (got, want) in [(refresh, 0.70), (free, 0.13), (clash, 0.02), (delete, 0.15)] {
            assert!(
                (got as f64 / total - want).abs() < 0.01,
                "{got}/{total} vs {want}"
            );
        }
    }

    #[test]
    fn churn_clashes_hit_a_resident_of_another_origin_and_free_groups_are_free() {
        let fx = Fixture::generate(Kind::Churn, 20_000, 9);
        let resident_groups: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.group).collect();
        let resident_origins: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.origin).collect();
        let mut free_groups = HashSet::new();
        for (k, s) in fx.pool.iter().enumerate() {
            assert!(!resident_origins.contains(&s.origin));
            if k < fx.pool_clash_from {
                assert!(!resident_groups.contains(&s.group));
                assert!(free_groups.insert(s.group), "free groups are distinct");
            } else {
                assert!(resident_groups.contains(&s.group));
            }
        }
    }

    #[test]
    fn storm_hostile_packets_share_nothing_with_legitimate_sessions() {
        let fx = Fixture::generate(Kind::Storm, 10_000, 4);
        let legit_keys: HashSet<(Ipv4Addr, u64)> =
            fx.residents.iter().map(|s| (s.origin, s.id)).collect();
        let legit_origins: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.origin).collect();
        let legit_groups: HashSet<Ipv4Addr> = fx.residents.iter().map(|s| s.group).collect();
        let mut hostile_keys = HashSet::new();
        for s in fx.forged.iter().chain(&fx.big_names) {
            assert!(!legit_keys.contains(&(s.origin, s.id)));
            assert!(!legit_origins.contains(&s.origin));
            assert!(!legit_groups.contains(&s.group));
            assert!(
                hostile_keys.insert((s.origin, s.id)),
                "hostile keys are distinct"
            );
        }
        assert!(fx
            .unparseable
            .iter()
            .all(|r| !legit_origins.contains(&r.source)));
        assert!(fx.big_names.iter().all(|s| s.name.len() == 1_000));
        let hostile = fx
            .stream()
            .take(8_000)
            .filter(|op| !matches!(op, Op::Refresh(_)))
            .count();
        assert_eq!(hostile, 6_000, "three hostile packets per legitimate one");
    }

    #[test]
    fn absent_keys_are_absent() {
        let fx = Fixture::generate(Kind::Steady, 1_000, 2);
        let keys: HashSet<(Ipv4Addr, u64)> =
            fx.residents.iter().map(|s| (s.origin, s.id)).collect();
        let mut rng = Rng::new(1);
        assert!((0..1_000).all(|_| !keys.contains(&fx.absent_key(&mut rng))));
    }
}
