//! A synthetic Mbone map — the substitute for the paper's mcollect data.
//!
//! The paper simulates on "a map of the real Mbone as gathered from the
//! mcollect network monitor … the resulting connected graph includes
//! 1864 distinct nodes", with all TTL thresholds and DVMRP metrics.
//! That data set no longer exists, so we generate a topology that
//! reproduces the three structural properties the paper's results rest
//! on:
//!
//! 1. **Nested threshold rings**: organisation boundaries at TTL 16,
//!    European national boundaries at TTL 48, country/continental
//!    boundaries at TTL 64 — so the canonical session TTLs
//!    (15/47/63/127) map onto organisation / national / international /
//!    intercontinental scopes.
//! 2. **The Figure 3 inconsistency**: within Europe country borders are
//!    at TTL 48, but no 48-boundaries exist in North America, so a
//!    TTL-47 session in the US behaves exactly like a TTL-63 one and
//!    UK-only plus Europe-wide sessions share any 33–64 partition.
//! 3. **Hop-count/TTL proportionality** (Figure 10's table): typical hop
//!    counts ≈ 3 at TTL 16, ≈ 7 at TTL 47/63, ≈ 10–11 at TTL 127, with a
//!    world diameter under the DVMRP infinite metric of 32.
//!
//! The generator is fully deterministic from its seed.

use sdalloc_sim::{SimDuration, SimRng};

use crate::graph::{NodeId, Topology};

/// TTL threshold for organisation (site/campus) boundaries.
pub const THRESHOLD_SITE: u8 = 16;
/// TTL threshold for national boundaries inside Europe.
pub const THRESHOLD_EU_NATIONAL: u8 = 48;
/// TTL threshold for country/continental boundaries elsewhere.
pub const THRESHOLD_INTERNATIONAL: u8 = 64;

/// Canonical session TTLs and what they meant on the 1998 Mbone.
pub mod ttl {
    /// Stays on the originating subnet.
    pub const SUBNET: u8 = 1;
    /// Organisation-local (below the TTL-16 boundary).
    pub const SITE: u8 = 15;
    /// National within Europe (below the TTL-48 boundaries).
    pub const NATIONAL_EU: u8 = 47;
    /// International/continental (below the TTL-64 boundaries).
    pub const INTERNATIONAL: u8 = 63;
    /// Intercontinental.
    pub const INTERCONTINENTAL: u8 = 127;
    /// Effectively global.
    pub const GLOBAL: u8 = 191;
}

/// A continent in the generated map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Continent {
    /// North America (no internal TTL-48 boundaries).
    NorthAmerica,
    /// Europe (TTL-48 national boundaries).
    Europe,
    /// Asia.
    Asia,
    /// Oceania.
    Oceania,
    /// South America.
    SouthAmerica,
}

/// Metadata about one generated country.
#[derive(Debug, Clone)]
pub struct Country {
    /// Human-readable name ("uk", "us"...).
    pub name: String,
    /// Continent the country belongs to.
    pub continent: Continent,
    /// National backbone routers (attachment points for borders).
    pub backbone: Vec<NodeId>,
}

/// The generated map: topology plus placement metadata.
#[derive(Debug, Clone)]
pub struct MboneMap {
    /// The routed topology.
    pub topo: Topology,
    /// Country index of every node.
    pub node_country: Vec<u16>,
    /// Countries in generation order.
    pub countries: Vec<Country>,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct MboneParams {
    /// RNG seed; the same seed always produces the same map.
    pub seed: u64,
    /// Total node count (the paper's map had 1864).  Exact for targets
    /// of a few hundred and up; small targets may overshoot slightly
    /// because every country needs a minimum viable structure.
    pub target_nodes: usize,
}

impl Default for MboneParams {
    fn default() -> Self {
        MboneParams {
            seed: 0x05da_110c,
            target_nodes: 1864,
        }
    }
}

/// Per-continent plan: (name, continent, share of nodes, country names).
fn continent_plan() -> Vec<(Continent, f64, Vec<&'static str>)> {
    vec![
        (Continent::NorthAmerica, 0.45, vec!["us", "ca", "mx"]),
        (
            Continent::Europe,
            0.35,
            vec!["uk", "de", "nl", "scand", "fr", "it", "es", "ch"],
        ),
        (Continent::Asia, 0.10, vec!["jp", "kr", "sg"]),
        (Continent::Oceania, 0.05, vec!["au"]),
        (Continent::SouthAmerica, 0.05, vec!["br", "cl"]),
    ]
}

impl MboneMap {
    /// Generate a map with the default 1998 parameters (1864 nodes).
    pub fn generate_default() -> MboneMap {
        MboneMap::generate(&MboneParams::default())
    }

    /// Generate a map.
    #[expect(
        clippy::indexing_slicing,
        reason = "offline generator: country/continent tables are built and sized in this function before any index"
    )]
    pub fn generate(params: &MboneParams) -> MboneMap {
        assert!(params.target_nodes >= 64, "map too small to be structured");
        let mut rng = SimRng::new(params.seed);
        let mut topo = Topology::new();
        let mut node_country: Vec<u16> = Vec::new();
        let mut countries: Vec<Country> = Vec::new();

        let plan = continent_plan();
        // Node budget per continent, fixing rounding drift on the largest.
        let mut budgets: Vec<usize> = plan
            .iter()
            .map(|(_, f, _)| (params.target_nodes as f64 * f).round() as usize)
            .collect();
        let drift = params.target_nodes as isize - budgets.iter().sum::<usize>() as isize;
        budgets[0] = (budgets[0] as isize + drift) as usize;

        for ((continent, _, names), budget) in plan.iter().zip(budgets) {
            // Country weights: first country (the hub) is the biggest.
            let mut weights: Vec<f64> = names
                .iter()
                .enumerate()
                .map(|(i, _)| if i == 0 { 2.0 } else { 0.6 + rng.f64() * 0.8 })
                .collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            let mut remaining = budget;
            for (i, name) in names.iter().enumerate() {
                let want = if i + 1 == names.len() {
                    remaining
                } else {
                    ((budget as f64 * weights[i]).round() as usize).min(remaining)
                };
                let take = want.max(6).min(remaining.max(6));
                let country_idx = u16::try_from(countries.len()).unwrap_or(u16::MAX);
                let country = build_country(
                    &mut topo,
                    &mut node_country,
                    &mut rng,
                    name,
                    *continent,
                    country_idx,
                    take,
                );
                countries.push(country);
                remaining = remaining.saturating_sub(take);
            }
        }

        link_countries(&mut topo, &countries, &mut rng);

        debug_assert!(topo.is_connected(), "generated map must be connected");
        MboneMap {
            topo,
            node_country,
            countries,
        }
    }

    /// Nodes in a given country.
    pub fn country_nodes(&self, country: u16) -> Vec<NodeId> {
        self.node_country
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == country)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Continent of a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node_continent is sized to node_count at generation; ids are minted by the same generator"
    )]
    pub fn continent_of(&self, v: NodeId) -> Continent {
        self.countries[self.node_country[v.index()] as usize].continent
    }
}

/// Build one country's internal structure, returning its metadata.
///
/// Structure: a national backbone ring-ish core; regional hubs hanging
/// off the backbone; organisations ("sites") behind TTL-16 boundary
/// links; small random trees inside each organisation.
#[expect(
    clippy::indexing_slicing,
    reason = "offline generator helper: indices address the node vector it just filled"
)]
fn build_country(
    topo: &mut Topology,
    node_country: &mut Vec<u16>,
    rng: &mut SimRng,
    name: &str,
    continent: Continent,
    country_idx: u16,
    budget: usize,
) -> Country {
    fn add(
        topo: &mut Topology,
        node_country: &mut Vec<u16>,
        country_idx: u16,
        label: String,
    ) -> NodeId {
        let id = topo.add_node(crate::graph::Node {
            label,
            pos: (0.0, 0.0),
        });
        node_country.push(country_idx);
        id
    }

    let ms = SimDuration::from_millis;

    // National backbone: 2..=6 routers in a path with one chord.
    let nb = (budget / 40).clamp(2, 6);
    let backbone: Vec<NodeId> = (0..nb)
        .map(|i| add(topo, node_country, country_idx, format!("{name}/bb{i}")))
        .collect();
    for w in backbone.windows(2) {
        topo.add_link(w[0], w[1], 1, 1, ms(5 + rng.below(10)));
    }
    if nb > 3 {
        topo.add_link(backbone[0], backbone[nb - 1], 2, 1, ms(5 + rng.below(10)));
    }
    let mut used = nb;

    // Regional hubs.
    let nr = (budget / 25)
        .clamp(1, 10)
        .min(budget.saturating_sub(used).max(1));
    let regions: Vec<NodeId> = (0..nr)
        .map(|i| {
            let hub = add(topo, node_country, country_idx, format!("{name}/r{i}"));
            let attach = *rng.choose(&backbone);
            topo.add_link(hub, attach, 1, 1, ms(3 + rng.below(8)));
            hub
        })
        .collect();
    used += nr;

    // Organisations behind TTL-16 boundaries until the budget is spent.
    let mut site_no = 0usize;
    while used < budget {
        let remaining = budget - used;
        // Geometric-ish organisation size, mode small, max 12.
        let mut size = 1usize;
        while size < 12 && rng.chance(0.55) {
            size += 1;
        }
        let size = size.min(remaining);
        let gw = add(
            topo,
            node_country,
            country_idx,
            format!("{name}/s{site_no}/gw"),
        );
        let hub = *rng.choose(&regions);
        topo.add_link(gw, hub, 1, THRESHOLD_SITE, ms(2 + rng.below(7)));
        let mut members = vec![gw];
        for r in 1..size {
            let v = add(
                topo,
                node_country,
                country_idx,
                format!("{name}/s{site_no}/r{r}"),
            );
            // Chain bias: usually extend the most recent router, giving
            // organisations some depth (paper: up to ~10 hops at TTL 16).
            // `members` always holds at least the gateway, so the
            // fallthrough arm only serves the chance(0.7)=false draw;
            // `chance` is drawn first to keep the RNG stream unchanged.
            let parent = match (rng.chance(0.7), members.last()) {
                (true, Some(&last)) => last,
                _ => *rng.choose(&members),
            };
            topo.add_link(v, parent, 1, 1, ms(1 + rng.below(3)));
            members.push(v);
        }
        used += size;
        site_no += 1;
    }

    Country {
        name: name.to_string(),
        continent,
        backbone,
    }
}

/// Wire countries together: TTL-48 borders inside Europe, TTL-64
/// elsewhere and between continents.
#[expect(
    clippy::indexing_slicing,
    reason = "offline generator helper: gateway indices come from the country tables built by generate"
)]
fn link_countries(topo: &mut Topology, countries: &[Country], rng: &mut SimRng) {
    let ms = SimDuration::from_millis;
    let by_continent = |c: Continent| -> Vec<usize> {
        countries
            .iter()
            .enumerate()
            .filter(|(_, k)| k.continent == c)
            .map(|(i, _)| i)
            .collect()
    };

    for continent in [
        Continent::NorthAmerica,
        Continent::Europe,
        Continent::Asia,
        Continent::Oceania,
        Continent::SouthAmerica,
    ] {
        let members = by_continent(continent);
        let threshold = if continent == Continent::Europe {
            THRESHOLD_EU_NATIONAL
        } else {
            THRESHOLD_INTERNATIONAL
        };
        // Chain the continent's countries, then add a couple of chords in
        // Europe so the 48-mesh is not a pure tree.
        for w in members.windows(2) {
            let a = *rng.choose(&countries[w[0]].backbone);
            let b = *rng.choose(&countries[w[1]].backbone);
            topo.add_link(a, b, 1, threshold, ms(10 + rng.below(15)));
        }
        if continent == Continent::Europe && members.len() > 3 {
            for _ in 0..2 {
                let i = members[rng.index(members.len())];
                let j = members[rng.index(members.len())];
                if i != j {
                    let a = *rng.choose(&countries[i].backbone);
                    let b = *rng.choose(&countries[j].backbone);
                    topo.add_link(a, b, 1, THRESHOLD_EU_NATIONAL, ms(10 + rng.below(15)));
                }
            }
        }
    }

    // Intercontinental links between hub countries (the first country of
    // each continent): NA–EU, NA–AS, EU–AS, NA–SA, AS–OC.
    let hub = |c: Continent| -> NodeId {
        let idx = by_continent(c)[0];
        countries[idx].backbone[0]
    };
    let pairs = [
        (Continent::NorthAmerica, Continent::Europe),
        (Continent::NorthAmerica, Continent::Asia),
        (Continent::Europe, Continent::Asia),
        (Continent::NorthAmerica, Continent::SouthAmerica),
        (Continent::Asia, Continent::Oceania),
    ];
    for (x, y) in pairs {
        topo.add_link(
            hub(x),
            hub(y),
            1,
            THRESHOLD_INTERNATIONAL,
            ms(40 + rng.below(50)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::SourceTree;
    use crate::scope::{Scope, ScopeCache};

    fn small_map() -> MboneMap {
        MboneMap::generate(&MboneParams {
            seed: 1,
            target_nodes: 400,
        })
    }

    #[test]
    fn default_map_has_paper_node_count() {
        let map = MboneMap::generate_default();
        assert_eq!(map.topo.node_count(), 1864);
        assert!(map.topo.is_connected());
    }

    #[test]
    fn deterministic_generation() {
        let a = MboneMap::generate(&MboneParams {
            seed: 7,
            target_nodes: 500,
        });
        let b = MboneMap::generate(&MboneParams {
            seed: 7,
            target_nodes: 500,
        });
        assert_eq!(a.topo.node_count(), b.topo.node_count());
        assert_eq!(a.topo.link_count(), b.topo.link_count());
        assert_eq!(a.node_country, b.node_country);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MboneMap::generate(&MboneParams {
            seed: 1,
            target_nodes: 500,
        });
        let b = MboneMap::generate(&MboneParams {
            seed: 2,
            target_nodes: 500,
        });
        // Same node count (budgeted) but different wiring.
        assert_eq!(a.topo.node_count(), b.topo.node_count());
        assert_ne!(
            a.topo
                .links()
                .iter()
                .map(|l| (l.a, l.b))
                .collect::<Vec<_>>(),
            b.topo
                .links()
                .iter()
                .map(|l| (l.a, l.b))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn thresholds_present() {
        let map = small_map();
        let thresholds: std::collections::HashSet<u8> =
            map.topo.links().iter().map(|l| l.threshold).collect();
        assert!(thresholds.contains(&1));
        assert!(thresholds.contains(&THRESHOLD_SITE));
        assert!(thresholds.contains(&THRESHOLD_EU_NATIONAL));
        assert!(thresholds.contains(&THRESHOLD_INTERNATIONAL));
    }

    #[test]
    fn no_48_boundaries_outside_europe() {
        // The Figure 3 property: TTL-48 borders exist only inside Europe.
        let map = small_map();
        for link in map.topo.links() {
            if link.threshold == THRESHOLD_EU_NATIONAL {
                assert_eq!(map.continent_of(link.a), Continent::Europe);
                assert_eq!(map.continent_of(link.b), Continent::Europe);
            }
        }
    }

    #[test]
    fn ttl15_stays_within_country() {
        let map = small_map();
        let mut cache = ScopeCache::new(map.topo.clone());
        // Sample a handful of sources; a TTL-15 session must never escape
        // its own country (it cannot even cross the site boundary).
        for i in (0..map.topo.node_count()).step_by(37) {
            let src = NodeId(i as u32);
            let set = cache.reach_set(Scope::new(src, ttl::SITE)).clone();
            for v in set.iter() {
                assert_eq!(
                    map.node_country[v.index()],
                    map.node_country[src.index()],
                    "TTL-15 leaked from {} to {}",
                    map.topo.node(src).label,
                    map.topo.node(v).label
                );
            }
        }
    }

    #[test]
    fn ttl63_stays_within_continent_but_crosses_eu_borders() {
        let map = small_map();
        let mut cache = ScopeCache::new(map.topo.clone());
        // Find a European backbone node.
        let eu_country = map
            .countries
            .iter()
            .position(|c| c.continent == Continent::Europe)
            .expect("has europe");
        let src = map.countries[eu_country].backbone[0];
        let set = cache.reach_set(Scope::new(src, ttl::INTERNATIONAL)).clone();
        let mut countries_seen = std::collections::HashSet::new();
        for v in set.iter() {
            assert_eq!(
                map.continent_of(v),
                Continent::Europe,
                "TTL-63 escaped the continent"
            );
            countries_seen.insert(map.node_country[v.index()]);
        }
        assert!(
            countries_seen.len() > 1,
            "TTL-63 should cross European national borders"
        );
    }

    #[test]
    fn ttl127_crosses_continents() {
        let map = small_map();
        let mut cache = ScopeCache::new(map.topo.clone());
        let src = map.countries[0].backbone[0]; // NA hub
        let set = cache
            .reach_set(Scope::new(src, ttl::INTERCONTINENTAL))
            .clone();
        let continents: std::collections::HashSet<_> =
            set.iter().map(|v| map.continent_of(v)).collect();
        assert!(continents.len() >= 3, "TTL-127 reached {continents:?}");
    }

    #[test]
    fn us_ttl47_behaves_like_ttl63() {
        // No 48-boundaries in North America: within the country the two
        // scopes are identical (paper: "In the US ... no TTL 47 sessions
        // are used" because 47 behaves just like 63 nationally).
        let map = small_map();
        let mut cache = ScopeCache::new(map.topo.clone());
        let us_nodes = map.country_nodes(0);
        let src = us_nodes[us_nodes.len() / 2];
        let r47 = cache.reach_set(Scope::new(src, ttl::NATIONAL_EU)).clone();
        let r63 = cache.reach_set(Scope::new(src, ttl::INTERNATIONAL)).clone();
        let us_set: std::collections::HashSet<_> = us_nodes.iter().copied().collect();
        for v in map.topo.node_ids().filter(|v| us_set.contains(v)) {
            assert_eq!(
                r47.contains(v),
                r63.contains(v),
                "47/63 differ inside the US at {}",
                map.topo.node(v).label
            );
        }
    }

    #[test]
    fn uk_ttl47_smaller_than_ttl63() {
        // Inside Europe the 48-borders bite: a UK TTL-47 session is
        // national, TTL-63 is Europe-wide.
        let map = small_map();
        let mut cache = ScopeCache::new(map.topo.clone());
        let uk = map
            .countries
            .iter()
            .position(|c| c.name == "uk")
            .expect("uk exists");
        let src = map.countries[uk].backbone[0];
        let z47 = cache.zone_size(Scope::new(src, ttl::NATIONAL_EU));
        let z63 = cache.zone_size(Scope::new(src, ttl::INTERNATIONAL));
        assert!(
            z47 < z63,
            "47-zone {z47} should be smaller than 63-zone {z63}"
        );
        // And the 47 zone is exactly the UK's reachable portion.
        let set = cache.reach_set(Scope::new(src, ttl::NATIONAL_EU)).clone();
        for v in set.iter() {
            assert_eq!(
                map.countries[map.node_country[v.index()] as usize].name,
                "uk"
            );
        }
    }

    #[test]
    fn world_diameter_under_dvmrp_infinity() {
        let map = small_map();
        // From the NA hub, every node is reachable and within 32 hops.
        let tree = SourceTree::compute(&map.topo, map.countries[0].backbone[0]);
        let max_hops = tree
            .hops
            .iter()
            .filter(|&&h| h != u32::MAX)
            .max()
            .copied()
            .unwrap();
        assert!(max_hops <= 32, "diameter {max_hops} exceeds DVMRP infinity");
        let unreachable = tree.metric.iter().filter(|&&m| m == u32::MAX).count();
        assert_eq!(unreachable, 0, "{unreachable} nodes unreachable from hub");
    }

    #[test]
    fn country_nodes_partition_the_map() {
        let map = small_map();
        let total: usize = (0..map.countries.len() as u16)
            .map(|c| map.country_nodes(c).len())
            .sum();
        assert_eq!(total, map.topo.node_count());
    }
}
