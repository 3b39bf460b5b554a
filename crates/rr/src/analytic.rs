//! Closed-form upper bounds on the number of responders
//! (Section 3, Equations 2–4; Figures 14 and 18).
//!
//! Model: `n` potential responders each pick one of `d` time buckets of
//! width `R` (the maximum round-trip time).  Everyone in the earliest
//! occupied bucket responds; everyone later is suppressed.  This is an
//! upper bound because it ignores suppression *within* a bucket and
//! round-trips shorter than `R`.
//!
//! The paper derives the expectation as a double sum over (k packets in
//! bucket b) × (no packets earlier).  That double sum telescopes:
//! conditioning on a bucket `b` with mass `a_b` out of `S`, and mass
//! `c_b` strictly after it,
//!
//! ```text
//! E = Σ_b  n · (a_b/S) · ((a_b + c_b)/S)^(n−1)
//! ```
//!
//! (each of the `n` packets contributes `a_b/S · P(the other n−1 avoid
//! the buckets before b)`), giving an O(d) evaluation that is exact and
//! stable for `n` up to millions.  The naive double sum is kept (for
//! small inputs) as a cross-check in the tests.

/// Expected responders with **uniform** bucket choice (Equation 2,
/// Figure 14): `d` buckets of equal probability.
///
/// ```
/// use sdalloc_rr::analytic::expected_responses_uniform;
/// // 12 800 receivers, 64 buckets: far too many duplicates.
/// assert!(expected_responses_uniform(12_800, 64) > 100.0);
/// ```
pub fn expected_responses_uniform(n: u64, d: u64) -> f64 {
    assert!(n >= 1 && d >= 1, "need at least one packet and one bucket");
    // E = (n/d) · Σ_{j=1..d} (j/d)^(n−1), where j = d − b + 1.
    let nf = n as f64;
    let df = d as f64;
    let mut sum = 0.0;
    for j in 1..=d {
        sum += (j as f64 / df).powf(nf - 1.0);
    }
    nf / df * sum
}

/// Expected responders with **exponential** bucket choice (Equations 3–4,
/// Figure 18): bucket `b` (1-based) has probability `2^(b−1) / (2^d − 1)`.
///
/// As `d → ∞` this tends to `1/ln 2 ≈ 1.4427` — "the limit in this case
/// is a mean of 1.442698 responses … the small price we pay for using an
/// exponential".
pub fn expected_responses_exponential(n: u64, d: u64) -> f64 {
    assert!(n >= 1 && d >= 1, "need at least one packet and one bucket");
    let nf = n as f64;
    // Work with ratios a_b/S and (a_b+c_b)/S in log2 space to survive
    // d up to thousands: a_b = 2^(b−1), a_b + c_b = 2^d − 2^(b−1),
    // S = 2^d − 1.
    //   a_b/S        = 2^(b−1−d) · (1/(1−2^(−d)))
    //   (a_b+c_b)/S  = (1 − 2^(b−1−d)) / (1 − 2^(−d))
    let mut sum = 0.0;
    let log2_s_ratio = (-((-(d as f64)).exp2())).ln_1p() / std::f64::consts::LN_2; // log2(1−2^−d)
    for b in 1..=d {
        let e = b as f64 - 1.0 - d as f64; // ≤ −1... ≤ 0
        let log2_a = e - log2_s_ratio;
        let tail = 1.0 - e.exp2(); // 1 − 2^(b−1−d) ∈ (0, 1]
        if tail <= 0.0 {
            continue;
        }
        let log2_ac = tail.log2() - log2_s_ratio;
        let log2_term = log2_a + (nf - 1.0) * log2_ac;
        sum += log2_term.exp2();
    }
    nf * sum
}

/// The asymptotic floor of the exponential scheme: `1/ln 2`.
pub const EXPONENTIAL_FLOOR: f64 = std::f64::consts::LOG2_E; // = 1/ln 2

/// Convert a suppression window `d2 − d1` and RTT `r` (same unit) into a
/// bucket count, as the paper does (`d` buckets of size `R`).  At least
/// one bucket.
pub fn buckets(window: f64, rtt: f64) -> u64 {
    assert!(rtt > 0.0, "rtt must be positive");
    (window / rtt).floor().max(1.0) as u64
}

/// Naive O(n·d) evaluation of Equation 2/4, for cross-checking the
/// closed forms on small inputs.  `bucket_mass[b]` is the (unnormalised)
/// probability mass of bucket `b`.
#[expect(
    clippy::indexing_slicing,
    reason = "suffix has d+1 elements and b stays below d"
)]
pub fn expected_responses_naive(n: u64, bucket_mass: &[f64]) -> f64 {
    let s: f64 = bucket_mass.iter().sum();
    let nf = n as f64;
    let mut total = 0.0;
    // Precompute suffix sums: mass strictly after bucket b.
    let d = bucket_mass.len();
    let mut suffix = vec![0.0; d + 1];
    for b in (0..d).rev() {
        suffix[b] = suffix[b + 1] + bucket_mass[b];
    }
    for b in 0..d {
        let p = bucket_mass[b] / s; // this bucket
        let after = suffix[b + 1] / s; // strictly after
                                       // Σ_k k·C(n,k)·p^k·after^(n−k) = n·p·(p+after)^(n−1)
                                       // — but verify by literal summation as the paper writes it:
        let mut eb = 0.0;
        for k in 1..=n {
            let log_c = ln_choose(n, k);
            let term = log_c + (k as f64) * p.ln() + (nf - k as f64) * after.max(1e-300).ln();
            eb += k as f64 * term.exp();
        }
        total += eb;
    }
    total
}

fn ln_choose(n: u64, k: u64) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bucket_everyone_responds() {
        for n in [1u64, 5, 100] {
            assert!((expected_responses_uniform(n, 1) - n as f64).abs() < 1e-9);
            assert!((expected_responses_exponential(n, 1) - n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn one_packet_one_response() {
        for d in [1u64, 10, 100, 1000] {
            assert!((expected_responses_uniform(1, d) - 1.0).abs() < 1e-9);
            assert!((expected_responses_exponential(1, d) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_matches_naive() {
        for (n, d) in [(2u64, 2u64), (5, 3), (10, 7), (20, 12)] {
            let closed = expected_responses_uniform(n, d);
            let naive = expected_responses_naive(n, &vec![1.0; d as usize]);
            assert!(
                (closed - naive).abs() < 1e-6,
                "n={n} d={d}: closed {closed} naive {naive}"
            );
        }
    }

    #[test]
    fn exponential_matches_naive() {
        for (n, d) in [(2u64, 2u64), (5, 3), (10, 7), (20, 10)] {
            let closed = expected_responses_exponential(n, d);
            let mass: Vec<f64> = (0..d).map(|b| (2f64).powi(b as i32)).collect();
            let naive = expected_responses_naive(n, &mass);
            assert!(
                (closed - naive).abs() < 1e-6,
                "n={n} d={d}: closed {closed} naive {naive}"
            );
        }
    }

    #[test]
    fn uniform_needs_d_proportional_to_n() {
        // Figure 14's message: with uniform delays, holding d fixed while
        // n grows explodes the response count...
        let small = expected_responses_uniform(100, 64);
        let big = expected_responses_uniform(10_000, 64);
        assert!(big > small * 20.0, "small {small} big {big}");
        // ...and keeping E constant requires d ∝ n.
        let e1 = expected_responses_uniform(1_000, 1_000);
        let e2 = expected_responses_uniform(10_000, 10_000);
        assert!((e1 - e2).abs() / e1 < 0.05, "{e1} vs {e2}");
    }

    #[test]
    fn exponential_nearly_size_independent() {
        // Figure 18's message: E barely moves across two decades of n.
        let d = 40;
        let e200 = expected_responses_exponential(200, d);
        let e25k = expected_responses_exponential(25_600, d);
        assert!(e200 < 4.0, "e200 = {e200}");
        assert!(e25k < 8.0, "e25k = {e25k}");
        assert!(e25k / e200 < 3.0, "ratio {}", e25k / e200);
    }

    #[test]
    fn exponential_floor_is_1_4427() {
        // For large d with big n the expectation approaches 1/ln 2 ≈
        // 1.442695 — the paper quotes "a mean of 1.442698 responses".
        let e = expected_responses_exponential(1_000_000, 400);
        assert!(
            (e - EXPONENTIAL_FLOOR).abs() < 0.02,
            "e = {e}, floor = {EXPONENTIAL_FLOOR}"
        );
        #[allow(clippy::approx_constant, reason = "the paper's quoted digits")]
        const PAPER_LIMIT: f64 = 1.442695;
        assert!((EXPONENTIAL_FLOOR - PAPER_LIMIT).abs() < 1e-5);
    }

    #[test]
    fn uniform_monotone_in_d() {
        let mut prev = f64::INFINITY;
        for d in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let e = expected_responses_uniform(1_000, d);
            assert!(e <= prev + 1e-9, "not monotone at d={d}");
            prev = e;
        }
    }

    #[test]
    fn large_inputs_are_finite_and_sane() {
        // Figure 14/18 corner: n = 51 200, D2 = 204.8 s, R = 200 ms →
        // d = 1024 buckets.
        let u = expected_responses_uniform(51_200, 1024);
        assert!(u.is_finite() && u >= 1.0, "uniform {u}");
        let e = expected_responses_exponential(51_200, 1024);
        assert!(e.is_finite() && (1.0..3.0).contains(&e), "exponential {e}");
    }

    #[test]
    fn buckets_helper() {
        assert_eq!(buckets(204_800.0, 200.0), 1024);
        assert_eq!(buckets(100.0, 200.0), 1);
        assert_eq!(buckets(200.0, 200.0), 1);
        assert_eq!(buckets(400.0, 200.0), 2);
    }

    #[test]
    fn figure14_shape_grid() {
        // Spot-check the Figure 14 surface: more sites → more responses;
        // longer D2 → fewer.
        let d2_values = [800.0, 3_200.0, 12_800.0, 51_200.0, 204_800.0];
        let sites = [200u64, 1_600, 12_800, 51_200];
        for w in d2_values.windows(2) {
            let e_short = expected_responses_uniform(1_600, buckets(w[0], 200.0));
            let e_long = expected_responses_uniform(1_600, buckets(w[1], 200.0));
            assert!(
                e_long < e_short,
                "D2 {} → {e_short}, {} → {e_long}",
                w[0],
                w[1]
            );
        }
        for w in sites.windows(2) {
            let e_small = expected_responses_uniform(w[0], 256);
            let e_big = expected_responses_uniform(w[1], 256);
            assert!(e_big > e_small);
        }
    }
}
