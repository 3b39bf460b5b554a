//! Statistics and output formatting: nearest-rank percentiles with the
//! "ten samples beyond" guard, windowed-rate medians, open-loop
//! lateness, and a hand-rolled JSON writer (no serde offline).

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 * n)` (1-based).  `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.  The
/// small epsilon keeps a product such as 99.9 % of 10 000, which is
/// 9990.000000000002 in floating point, from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of the candidate percentiles that still has at least ten
/// samples beyond it; `None` when even the lowest candidate does not.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= 10)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// A sample set that is sorted once and then queried.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Pool another sample set into this one.
    pub fn append(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (0 when empty).
    pub fn p(&mut self, p: f64) -> f64 {
        self.sort();
        percentile(&self.values, p)
    }

    pub fn median(&mut self) -> f64 {
        self.p(50.0)
    }

    pub fn max(&mut self) -> f64 {
        self.sort();
        self.values.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// Counts events into fixed wall-clock windows and reports the median
/// per-second rate over the *complete* windows, so the ragged first and
/// last windows of a phase never enter the figure.
#[derive(Debug, Clone)]
pub struct RateWindows {
    window_ns: u64,
    start_ns: u64,
    counts: Vec<u64>,
}

impl RateWindows {
    pub fn new(start_ns: u64, window_ns: u64) -> RateWindows {
        RateWindows {
            window_ns: window_ns.max(1),
            start_ns,
            counts: Vec::new(),
        }
    }

    /// Record `n` events at `now_ns`.
    pub fn add(&mut self, now_ns: u64, n: u64) {
        let idx = (now_ns.saturating_sub(self.start_ns) / self.window_ns) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Per-second rates of the windows fully inside `[start, end)`; the
    /// overall mean rate alone when no window completed.
    pub fn complete_rates(&self, end_ns: u64) -> Samples {
        let complete = (end_ns.saturating_sub(self.start_ns) / self.window_ns) as usize;
        let per_s = 1e9 / self.window_ns as f64;
        let mut rates = Samples::default();
        for &c in self.counts.iter().take(complete) {
            rates.push(c as f64 * per_s);
        }
        if rates.is_empty() {
            let secs = end_ns.saturating_sub(self.start_ns) as f64 / 1e9;
            if secs > 0.0 {
                rates.push(self.total() as f64 / secs);
            }
        }
        rates
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Lateness of an open-loop generator: how far behind its schedule each
/// event was actually issued.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    late_ms: Samples,
}

impl Lateness {
    pub fn record(&mut self, due_ns: u64, actual_ns: u64) {
        self.late_ms
            .push(actual_ns.saturating_sub(due_ns) as f64 / 1e6);
    }

    pub fn p50_ms(&mut self) -> f64 {
        self.late_ms.median()
    }

    pub fn p99_ms(&mut self) -> f64 {
        self.late_ms.p(99.0)
    }

    pub fn max_ms(&mut self) -> f64 {
        self.late_ms.max()
    }

    pub fn count(&self) -> usize {
        self.late_ms.len()
    }
}

/// Seeded exponential inter-arrival schedule: offsets (ns) from phase
/// start of events at `rate_per_s`, up to `horizon_ns`.
pub fn exponential_schedule(
    mut next_f64: impl FnMut() -> f64,
    rate_per_s: f64,
    horizon_ns: u64,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mean_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF draw; 1 - u keeps the argument of ln in (0, 1].
        let u = next_f64();
        t += -mean_ns * (1.0 - u).max(f64::MIN_POSITIVE).ln();
        if t >= horizon_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// One metric as the driver's result line wants it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Append `s` as a JSON string literal.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite number with all its digits (Rust's shortest
/// round-trip form); non-finite values have no JSON form and become
/// `null`, which the caller treats as a failed run.
pub fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json_number(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_string(&mut out, &m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// The result line the driver parses: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// One `history.jsonl` line: string fields first, then the metrics as
/// plain numbers.
pub fn history_line(
    fields: &[(&str, String)],
    numbers: &[(&str, f64)],
    metrics: &[Metric],
) -> String {
    let mut out = String::from("{");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(", ");
        }
        first = false;
    };
    for (k, v) in fields {
        sep(&mut out);
        json_string(&mut out, k);
        out.push_str(": ");
        json_string(&mut out, v);
    }
    for (k, v) in numbers {
        sep(&mut out);
        json_string(&mut out, k);
        out.push_str(": ");
        json_number(&mut out, *v);
    }
    for m in metrics {
        sep(&mut out);
        json_string(&mut out, &m.name);
        out.push_str(": ");
        json_number(&mut out, m.value);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn guard_wants_ten_samples_beyond() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        let c = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(highest_supported(200, &c), Some(95.0));
        assert_eq!(highest_supported(1000, &c), Some(99.0));
        assert_eq!(highest_supported(10_000, &c), Some(99.9));
        assert_eq!(highest_supported(100, &c), Some(90.0));
        assert_eq!(highest_supported(20, &c), Some(50.0));
        assert_eq!(highest_supported(19, &c), None);
    }

    #[test]
    fn samples_sort_lazily_and_report() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.0);
        s.push(0.5);
        assert_eq!(s.p(20.0), 0.5);
        assert_eq!(s.max(), 4.0);
        assert!((s.mean() - 2.1).abs() < 1e-12);
    }

    #[test]
    fn rate_median_ignores_ragged_windows() {
        let mut r = RateWindows::new(1_000, 500_000_000);
        // Three complete half-second windows with 100, 300, 200 events,
        // then a partial fourth that must not count.
        r.add(1_000, 100);
        r.add(500_001_000, 300);
        r.add(1_000_001_000, 200);
        r.add(1_500_001_000, 9_999);
        assert_eq!(r.complete_rates(1_700_000_000).median(), 400.0);
        assert_eq!(r.total(), 10_599);
        // No complete window: overall mean.
        let mut short = RateWindows::new(0, 1_000_000_000);
        short.add(10, 50);
        assert_eq!(short.complete_rates(500_000_000).median(), 100.0);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let mut l = Lateness::default();
        l.record(1_000_000, 3_000_000);
        l.record(2_000_000, 2_000_000);
        l.record(5_000_000, 4_000_000); // early wake clamps to zero
        assert_eq!(l.count(), 3);
        assert_eq!(l.max_ms(), 2.0);
        assert_eq!(l.p50_ms(), 0.0);
    }

    #[test]
    fn exponential_schedule_has_the_asked_rate() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let sched = exponential_schedule(next, 40.0, 100_000_000_000);
        let n = sched.len() as f64;
        assert!(
            (n - 4000.0).abs() < 250.0,
            "got {n} events for 4000 expected"
        );
        assert!(sched.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A test-only JSON value and parser, enough to round-trip what the
    /// writer above produces.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        } else {
                            self.eat(b'}');
                            return Json::Obj(fields);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let mut out = String::new();
                    loop {
                        let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                        let c = rest.chars().next().unwrap();
                        self.i += c.len_utf8();
                        match c {
                            '"' => return Json::Str(out),
                            '\\' => {
                                let e = self.s[self.i];
                                self.i += 1;
                                match e {
                                    b'n' => out.push('\n'),
                                    b'r' => out.push('\r'),
                                    b't' => out.push('\t'),
                                    b'u' => {
                                        let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                            .unwrap();
                                        self.i += 4;
                                        out.push(
                                            char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                                .unwrap(),
                                        );
                                    }
                                    other => out.push(other as char),
                                }
                            }
                            c => out.push(c),
                        }
                    }
                }
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                b'n' => {
                    self.i += 4;
                    Json::Null
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap())
                }
            }
        }
    }

    fn parse(s: &str) -> Json {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, s.len(), "trailing bytes");
        v
    }

    fn field<'a>(j: &'a Json, k: &str) -> &'a Json {
        let Json::Obj(fields) = j else {
            panic!("not an object")
        };
        &fields.iter().find(|(n, _)| n == k).expect("field").1
    }

    #[test]
    fn result_line_round_trips_through_a_parser() {
        let metrics = vec![
            Metric::new("visible_ms_p50", 171.203_418_7, "ms"),
            Metric::new("ingest_per_s", 153_422.0, "pkt/s"),
            Metric::new("odd \"name\"\n", 1e-9, "u\\v"),
        ];
        let line = result_line(true, 1234, 0, &metrics);
        assert!(!line.contains('\n'), "one line");
        let j = parse(&line);
        let Json::Obj(top) = &j else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&j, "correct"), &Json::Bool(true));
        assert_eq!(field(&j, "attempted"), &Json::Num(1234.0));
        assert_eq!(field(&j, "failed"), &Json::Num(0.0));
        let m = field(&j, "metrics");
        for want in &metrics {
            let got = field(m, &want.name);
            assert_eq!(
                field(got, "value"),
                &Json::Num(want.value),
                "all digits kept"
            );
            assert_eq!(field(got, "unit"), &Json::Str(want.unit.clone()));
        }
    }

    #[test]
    fn history_line_round_trips_and_flags_non_finite() {
        let line = history_line(
            &[
                ("commit", "abc123".into()),
                ("workload", "steady_1k".into()),
            ],
            &[("nproc", 2.0), ("seed", 7.0)],
            &[
                Metric::new("setup_s", 0.0123, "s"),
                Metric::new("bad", f64::NAN, "x"),
            ],
        );
        let j = parse(&line);
        assert_eq!(field(&j, "commit"), &Json::Str("abc123".into()));
        assert_eq!(field(&j, "nproc"), &Json::Num(2.0));
        assert_eq!(field(&j, "setup_s"), &Json::Num(0.0123));
        assert_eq!(field(&j, "bad"), &Json::Null);
    }
}
