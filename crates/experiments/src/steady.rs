//! Figures 12 and 13: steady-state behaviour of the adaptive schemes.
//!
//! The paper's Section 2.6 procedure, verbatim:
//!
//! 1. Allocate n sessions with TTLs chosen from the appropriate
//!    distribution and sources chosen at random without regard for
//!    address clashes.
//! 2. Re-allocate the addresses using the algorithm being tested so
//!    that no clashes exist.
//! 3. Remove one existing session chosen at random.
//! 4. Allocate a new session.
//! 5. Repeat from 3 until n sessions have been replaced keeping score
//!    of the number of address clashes.
//!
//! "This process is repeated \[repeats\] times to obtain a mean value …
//! The precise value of n for each address space size where the
//! probability of a clash exceeds 0.5 is discovered by using a median
//! filter to remove remaining noise."
//!
//! Figure 13's upper bound replaces a removed session "with a session
//! advertised from the same site with the same TTL", testing only the
//! limits of adaptation rather than the adaptation mechanism.

use sdalloc_core::{AddrSpace, Allocator};
use sdalloc_sim::{median_filter, SimRng};
use sdalloc_topology::workload::{random_scope, TtlDistribution};
use sdalloc_topology::Topology;

use crate::world::World;

/// Replacement policy for step 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// New random site and TTL (Figure 12).
    Random,
    /// Same site and TTL as the removed session (Figure 13's bound).
    SameSiteAndTtl,
}

/// Estimate the probability that at least one clash occurs while
/// replacing all `n` sessions once (one "mean session lifetime"), for
/// the given algorithm, space size and TTL distribution.
#[allow(
    clippy::too_many_arguments,
    reason = "experiment knobs mirror the paper's"
)]
pub fn steady_state_clash_probability(
    topo: &Topology,
    alg: &dyn Allocator,
    dist: &TtlDistribution,
    space_size: u32,
    n: usize,
    replacement: Replacement,
    repeats: usize,
    seed: u64,
) -> f64 {
    assert!(n >= 1 && repeats >= 1);
    let mut world = World::new(topo.clone(), AddrSpace::abstract_space(space_size));
    let mut clashing_runs = 0usize;
    for rep in 0..repeats {
        let mut rng = SimRng::new(seed ^ (rep as u64 + 1).wrapping_mul(0xA24B_AED4));
        if !seed_clash_free(&mut world, alg, dist, n, &mut rng) {
            // Could not even establish a clash-free state: count as a
            // clashing run (the space is simply too small for n).
            clashing_runs += 1;
            continue;
        }
        let mut clashed = false;
        for _ in 0..n {
            let removed = world.remove_random(&mut rng);
            let scope = match replacement {
                Replacement::Random => random_scope(world.scopes_mut().topology(), dist, &mut rng),
                Replacement::SameSiteAndTtl => removed.scope,
            };
            match world.allocate(alg, scope, &mut rng) {
                None => {
                    clashed = true; // refusing mid-steady-state is a failure
                    break;
                }
                Some((_, true)) => {
                    clashed = true;
                    break;
                }
                Some((_, false)) => {}
            }
        }
        if clashed {
            clashing_runs += 1;
        }
    }
    clashing_runs as f64 / repeats as f64
}

/// Step 1–2: build an initial clash-free population of `n` sessions.
/// Returns false if the algorithm cannot place them all without clashes
/// (after bounded retries per session).
fn seed_clash_free(
    world: &mut World,
    alg: &dyn Allocator,
    dist: &TtlDistribution,
    n: usize,
    rng: &mut SimRng,
) -> bool {
    world.clear_sessions();
    // Step 2 is *constructive* ("re-allocate the addresses … so that no
    // clashes exist"): it builds the starting state, it is not part of
    // the measurement.  An awkward draw (a scope whose band is wedged
    // against invisible sessions) is therefore re-drawn rather than
    // counted against the algorithm; only sustained failure — a genuine
    // capacity limit — fails the seeding.
    'sessions: for _ in 0..n {
        for _redraw in 0..20 {
            let scope = random_scope(world.scopes_mut().topology(), dist, rng);
            for _ in 0..64 {
                let visible = world.visible_at(scope.source);
                let view = sdalloc_core::View::new(&visible);
                let Some(addr) = alg.allocate(world.space(), scope.ttl, &view, rng) else {
                    break; // this scope's partition is full; redraw
                };
                if !world.would_clash(scope, addr) {
                    world.insert(crate::world::ActiveSession { scope, addr });
                    continue 'sessions;
                }
            }
        }
        return false;
    }
    true
}

/// Find the largest `n` for which the steady-state clash probability
/// stays at or below 0.5, by doubling then bisecting, with a final
/// median filter over a local scan (the paper's noise-removal step).
#[allow(
    clippy::too_many_arguments,
    reason = "experiment knobs mirror the paper's"
)]
pub fn allocations_at_half(
    topo: &Topology,
    alg: &dyn Allocator,
    dist: &TtlDistribution,
    space_size: u32,
    replacement: Replacement,
    repeats: usize,
    seed: u64,
    max_n: usize,
) -> usize {
    let prob = |n: usize, salt: u64| {
        steady_state_clash_probability(
            topo,
            alg,
            dist,
            space_size,
            n,
            replacement,
            repeats,
            seed ^ salt,
        )
    };
    // A single Monte-Carlo estimate above 0.5 is weak evidence near the
    // crossing; require an independent confirmation before treating a
    // point as "over", or a gradually-rising clash curve gets its
    // bracket cut absurdly short by one unlucky probe.
    let over = |n: usize, salt: u64| prob(n, salt) > 0.5 && prob(n, salt ^ 0x5EED_5EED) > 0.5;
    // Exponential bracket.
    let mut lo = 1usize;
    let mut hi = 2usize;
    while hi < max_n && !over(hi, hi as u64) {
        lo = hi;
        hi *= 2;
    }
    if hi >= max_n {
        return max_n;
    }
    // Bisect.
    while hi - lo > (lo / 8).max(1) {
        let mid = lo + (hi - lo) / 2;
        if !over(mid, mid as u64) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Local scan + median filter around the bracket to steady the noise.
    let step = ((hi - lo) / 2).max(1);
    let candidates: Vec<usize> = (0..5)
        .map(|i| lo.saturating_sub(step * 2) + i * step)
        .filter(|&c| c >= 1)
        .collect();
    let probs: Vec<f64> = candidates
        .iter()
        .map(|&c| prob(c, 0xF00D ^ c as u64))
        .collect();
    let smooth = median_filter(&probs, 3);
    let mut best = lo;
    for (c, p) in candidates.iter().zip(&smooth) {
        if *p <= 0.5 && *c > best {
            best = *c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::{AdaptiveIpr, InformedRandomAllocator, StaticIpr};
    use sdalloc_topology::mbone::{MboneMap, MboneParams};

    fn small_mbone() -> Topology {
        MboneMap::generate(&MboneParams {
            seed: 5,
            target_nodes: 200,
        })
        .topo
    }

    #[test]
    fn tiny_n_rarely_clashes() {
        let topo = small_mbone();
        let p = steady_state_clash_probability(
            &topo,
            &StaticIpr::seven_band(),
            &TtlDistribution::ds4(),
            400,
            4,
            Replacement::Random,
            10,
            1,
        );
        assert!(p <= 0.2, "p = {p}");
    }

    #[test]
    fn overfull_n_always_fails() {
        let topo = small_mbone();
        let p = steady_state_clash_probability(
            &topo,
            &InformedRandomAllocator,
            &TtlDistribution::ds1(),
            50,
            200, // cannot possibly be clash-free globally
            Replacement::Random,
            5,
            2,
        );
        assert!(p > 0.9, "p = {p}");
    }

    #[test]
    fn clash_probability_monotone_in_n() {
        let topo = small_mbone();
        let dist = TtlDistribution::ds4();
        let alg = AdaptiveIpr::aipr1();
        let p_small =
            steady_state_clash_probability(&topo, &alg, &dist, 300, 5, Replacement::Random, 10, 3);
        let p_big = steady_state_clash_probability(
            &topo,
            &alg,
            &dist,
            300,
            120,
            Replacement::Random,
            10,
            3,
        );
        assert!(p_big >= p_small, "p(120) = {p_big} < p(5) = {p_small}");
    }

    #[test]
    fn half_point_is_bracketed() {
        let topo = small_mbone();
        let alg = StaticIpr::seven_band();
        let dist = TtlDistribution::ds4();
        let n_half = allocations_at_half(&topo, &alg, &dist, 300, Replacement::Random, 8, 4, 5_000);
        assert!(n_half >= 1);
        assert!(n_half < 5_000, "unbounded result");
        // Probability just below the found point should be moderate.
        let p = steady_state_clash_probability(
            &topo,
            &alg,
            &dist,
            300,
            n_half.max(2) / 2,
            Replacement::Random,
            10,
            5,
        );
        assert!(p <= 0.8, "p at half the crossing = {p}");
    }

    #[test]
    fn same_site_bound_geq_random_for_aipr1() {
        // Figure 13's point: with stable (site, TTL) churn, AIPR-1's
        // small gaps suffice — its bound should be at least the
        // random-churn value.
        let topo = small_mbone();
        let alg = AdaptiveIpr::aipr1();
        let dist = TtlDistribution::ds4();
        let random =
            allocations_at_half(&topo, &alg, &dist, 200, Replacement::Random, 10, 6, 2_000);
        let pinned = allocations_at_half(
            &topo,
            &alg,
            &dist,
            200,
            Replacement::SameSiteAndTtl,
            10,
            6,
            2_000,
        );
        // The crossing search has coarse granularity at small spaces;
        // only assert pinned churn is in the same ballpark or better.
        assert!(
            pinned as f64 >= random as f64 * 0.5,
            "pinned {pinned} vs random {random}"
        );
    }
}
