//! Statistics helpers used throughout the experiment harness.
//!
//! Includes the median filter the paper applies to its clash-probability
//! tables ("the precise value of n … is discovered by using a median
//! filter to remove remaining noise"), simple histograms for the
//! hop-count distributions of Figure 10, and running summary statistics.

/// Running mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free; +inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let total = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / total as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / total as f64;
        self.n = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Integer-bucketed histogram (bucket = value), e.g. hop counts.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation of integer `value`.
    #[expect(
        clippy::indexing_slicing,
        reason = "counts is resized to value + 1 immediately above the index"
    )]
    pub fn add(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Record `count` observations of `value`.
    #[expect(
        clippy::indexing_slicing,
        reason = "counts is resized to value + 1 immediately above the index"
    )]
    pub fn add_n(&mut self, value: usize, count: u64) {
        if count == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += count;
        self.total += count;
    }

    /// Count in one bucket.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest bucket index with a non-zero count, or `None` if empty.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Bucket with the highest count (the paper's "most frequent hop
    /// count"), lowest index on ties; `None` if empty.
    #[expect(
        clippy::indexing_slicing,
        reason = "best is a previously-visited enumerate index of the same vec"
    )]
    pub fn mode(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let mut best = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Mean of the bucketed values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        sum / self.total as f64
    }

    /// Normalised frequencies (sum to 1), one per bucket up to the max.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Iterate `(value, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a slice by linear interpolation
/// between order statistics.  Panics on empty input; NaN values sort
/// after +∞ under IEEE 754 total order rather than panicking.
#[expect(
    clippy::indexing_slicing,
    reason = "lo/hi derive from q*(len-1) with q clamped to [0,1]; emptiness is the asserted contract"
)]
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Sliding-window median filter with the given odd window size.
///
/// Edges are handled by shrinking the window symmetrically, so the output
/// has the same length as the input.  This is the noise-removal step the
/// paper applies before locating the 50%-clash-probability crossing.
#[expect(
    clippy::indexing_slicing,
    reason = "the window radius is clamped to min(i, n-1-i), so lo..=hi stays inside data"
)]
pub fn median_filter(data: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    let n = data.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let radius = half.min(i).min(n - 1 - i);
        let lo = i - radius;
        let hi = i + radius;
        let mut win: Vec<f64> = data[lo..=hi].to_vec();
        win.sort_by(f64::total_cmp);
        out.push(win[win.len() / 2]);
    }
    out
}

/// Median of a slice (panics on empty; NaN sorts last under IEEE 754
/// total order).  Averages the two middle elements for even lengths.
#[expect(
    clippy::indexing_slicing,
    reason = "n/2 and n/2-1 are in-bounds for the non-empty (asserted) sorted copy"
)]
pub fn median(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "median of empty slice");
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Find the first index where `data[i] >= threshold`, interpolating the
/// fractional crossing point between samples; `None` if never crossed.
///
/// Used to locate "allocations before clash probability exceeds 0.5" on a
/// sampled clash-probability curve.
#[expect(
    clippy::indexing_slicing,
    reason = "i ranges over data.len() and i-1 is guarded by the i == 0 early return"
)]
pub fn first_crossing(data: &[f64], threshold: f64) -> Option<f64> {
    for i in 0..data.len() {
        if data[i] >= threshold {
            if i == 0 {
                return Some(0.0);
            }
            let prev = data[i - 1];
            let frac = if data[i] > prev {
                (threshold - prev) / (data[i] - prev)
            } else {
                0.0
            };
            return Some((i - 1) as f64 + frac);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.add(x);
        }
        for &x in &data[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn histogram_mode_and_mean() {
        let mut h = Histogram::new();
        for v in [3, 3, 3, 7, 7, 10] {
            h.add(v);
        }
        assert_eq!(h.mode(), Some(3));
        assert_eq!(h.max_value(), Some(10));
        assert_eq!(h.total(), 6);
        assert!((h.mean() - 33.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_normalized_sums_to_one() {
        let mut h = Histogram::new();
        for v in 0..50 {
            h.add_n(v, (v % 5 + 1) as u64);
        }
        let norm = h.normalized();
        let sum: f64 = norm.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mode(), None);
        assert_eq!(h.max_value(), None);
        assert!(h.normalized().is_empty());
    }

    #[test]
    fn quantiles() {
        let data: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&data, 0.0), 0.0);
        assert_eq!(quantile(&data, 1.0), 100.0);
        assert_eq!(quantile(&data, 0.5), 50.0);
        assert!((quantile(&data, 0.95) - 95.0).abs() < 1e-9);
        // Interpolation between order statistics.
        assert!((quantile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn median_filter_removes_spike() {
        let data = vec![1.0, 1.0, 9.0, 1.0, 1.0];
        let filtered = median_filter(&data, 3);
        assert_eq!(filtered, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn median_filter_preserves_monotone() {
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let filtered = median_filter(&data, 5);
        assert_eq!(filtered, data);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn crossing_interpolates() {
        let data = vec![0.0, 0.2, 0.4, 0.6, 0.8];
        let x = first_crossing(&data, 0.5).unwrap();
        assert!((x - 2.5).abs() < 1e-12);
    }

    #[test]
    fn crossing_none_when_below() {
        assert_eq!(first_crossing(&[0.0, 0.1, 0.2], 0.5), None);
    }

    #[test]
    fn crossing_at_start() {
        assert_eq!(first_crossing(&[0.7, 0.9], 0.5), Some(0.0));
    }
}
