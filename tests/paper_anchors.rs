//! Integration tests pinning the paper's quoted numbers.
//!
//! Every concrete number the paper states is asserted here against the
//! implementation, so a regression in any crate that shifts a headline
//! result fails loudly.

use sdalloc::core::analytic::{
    birthday_allocations_at_probability, birthday_clash_probability, eq1_allocations_at_half,
    section_2_3,
};
use sdalloc::core::PartitionMap;
use sdalloc::rr::analytic::{expected_responses_exponential, EXPONENTIAL_FLOOR};
use sdalloc::sap::schedule::BackoffSchedule;
use sdalloc::sim::{Channel, SimDuration};

#[test]
fn section_1_dvmrp_infinity_is_32() {
    assert_eq!(sdalloc::topology::DVMRP_INFINITY, 32);
}

#[test]
fn section_2_ipv4_multicast_space_is_2_pow_28() {
    // "In IPv4, there are 2^28 (approximately 270 million) multicast
    // addresses available."
    let total = 1u64 << 28;
    assert_eq!(total, 268_435_456);
    assert!((total as f64 - 270e6).abs() / 270e6 < 0.01);
}

#[test]
fn figure_4_birthday_at_10000() {
    // The figure's curve: ~50% around 118 allocations, near 1 by 400.
    let half = birthday_allocations_at_probability(10_000, 0.5);
    assert!((115..=122).contains(&half), "50% point at {half}");
    assert!(birthday_clash_probability(10_000, 400) > 0.996);
}

#[test]
fn section_2_3_effective_delay_12s() {
    // "(0.98*0.2)+(0.02*600)= 12 seconds"
    let eff = section_2_3::effective_delay_secs(0.2, 0.02, 600.0);
    assert!((eff - 12.196).abs() < 0.01);
    // Same number through the channel model.
    let ch = Channel::mbone_default();
    let eff2 = ch.effective_delay(SimDuration::from_mins(10)).as_secs_f64();
    assert!((eff - eff2).abs() < 1e-9);
}

#[test]
fn section_2_3_invisible_fraction_0_1_percent() {
    // "approximately 0.1% of sessions currently advertised are not
    // visible at any time" (4-hour advertisement).
    let f = section_2_3::invisible_fraction(12.196, 4.0 * 3600.0);
    assert!((0.0005..0.0015).contains(&f), "fraction {f}");
}

#[test]
fn section_2_3_16496_concurrent_sessions() {
    // "a total of approximately 16496 concurrent sessions ... before the
    // probability of a clash exceeds 0.5" (65536 addresses, 8 regions,
    // i = 0.001m).
    let total = section_2_3::concurrent_sessions(65_536.0, 8.0, 0.001);
    assert!((total - 16_496.0).abs() < 350.0, "got {total}");
}

#[test]
fn section_2_3_fast_repeat_0_3s_and_i_0_00005() {
    // "repeating the announcement 5 seconds after it is first made gives
    // a mean delay of about 0.3 seconds, and hence i = 0.00005m".
    let sched = BackoffSchedule::default();
    let eff = sched
        .effective_initial_delay(SimDuration::from_millis(200), 0.02)
        .as_secs_f64();
    assert!((eff - 0.296).abs() < 0.01, "effective delay {eff}");
    let i = section_2_3::invisible_fraction(eff, 2.0 * 3600.0 + 2.0 * 3600.0);
    assert!((i - 0.00005).abs() < 0.00004, "i = {i}");
}

#[test]
fn section_2_4_1_margin_2_gives_55_partitions() {
    assert_eq!(PartitionMap::new(2).len(), 55);
}

#[test]
fn figure_6_anchor_67_percent_at_10000() {
    // 67% was chosen "as approximately the proportion of the address
    // space that can be allocated for a band of 10000 addresses" at the
    // fast-announcement operating point.
    let m = eq1_allocations_at_half(10_000.0, 0.00005);
    let frac = m / 10_000.0;
    assert!((0.55..0.85).contains(&frac), "occupancy {frac}");
}

#[test]
fn section_3_1_exponential_limit_1_442698() {
    // "the limit in this case is a mean of 1.442698 responses".
    #[allow(clippy::approx_constant, reason = "the paper's quoted digits")]
    const PAPER_LIMIT: f64 = 1.442695;
    assert!((EXPONENTIAL_FLOOR - PAPER_LIMIT).abs() < 1e-5);
    let e = expected_responses_exponential(1_000_000, 500);
    assert!((e - EXPONENTIAL_FLOOR).abs() < 0.02, "e = {e}");
}

#[test]
fn conclusions_backoff_from_5s() {
    // "it should start from a high announcement rate (say a 5 second
    // interval) and exponentially back off".
    let s = BackoffSchedule::default();
    assert_eq!(s.interval_after(0), SimDuration::from_secs(5));
    assert!(s.interval_after(1) > s.interval_after(0));
    // ...and eventually reaches a low background rate.
    assert_eq!(s.interval_after(50), s.cap);
}

#[test]
fn conclusions_flat_space_bound_10000() {
    // Section 4.1: a flat scheme is reasonable "up to 10,000 addresses";
    // Eq 1 at the slow-announcement i = 0.001m still supports ~23% of
    // such a space (and ~67% at the fast-announcement operating point) —
    // useful, but visibly sub-linear beyond.
    let m10k = eq1_allocations_at_half(10_000.0, 0.001);
    assert!(m10k > 2_000.0, "10k-space capacity {m10k}");
    // The 270-million-address space cannot be allocated effectively:
    // occupancy collapses by orders of magnitude.
    let m270m = eq1_allocations_at_half(268_435_456.0, 0.001);
    assert!(
        m270m / 268_435_456.0 < 0.02,
        "a global flat space should pack terribly, got {}",
        m270m / 268_435_456.0
    );
}
