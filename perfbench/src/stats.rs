//! The benchmark's own metric arithmetic: a fine-grained latency histogram,
//! the quantile and sample-support rules, ratios with explicit
//! denominators, registry counter deltas, and metric-name validation.
//!
//! Everything here is plain data and pure functions so the unit tests at
//! the bottom can check it against brute-force oracles.

use gm_obs::RegistrySnapshot;

/// Linear sub-buckets per power of two. 64 gives a worst-case relative
/// bucket width of 1/64 (about 1/44 octave) — fine enough to resolve a
/// 10% latency shift, which `gm-workload`'s factor-of-two log2 buckets
/// cannot.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2 * SUB` get one exact bucket each.
const EXACT: u64 = 2 * SUB;
/// Enough buckets for every `u64`.
const BUCKETS: usize = (EXACT as usize) + (64 - SUB_BITS as usize - 1) * SUB as usize;

/// A latency histogram with bucket width at most 1/64 of the value.
#[derive(Clone)]
pub struct FineHist {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for FineHist {
    fn default() -> Self {
        FineHist {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl FineHist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let mantissa = v >> shift;
        (EXACT + (shift as u64 - 1) * SUB + (mantissa - SUB)) as usize
    }

    /// `(lowest value, width)` of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < EXACT {
            return (i, 1);
        }
        let shift = (i - EXACT) / SUB + 1;
        let mantissa = (i - EXACT) % SUB + SUB;
        (mantissa << shift, 1 << shift)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &FineHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The sample of nearest rank `rank` (1-based), reported as its
    /// bucket's midpoint clamped to the observed range.
    fn at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bounds(i);
                return (lo + (width - 1) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        self.at_rank(nearest_rank(self.total, q))
    }

    /// The tail quantile `q` if at least ten samples lie beyond it; else the
    /// highest quantile that has ten samples beyond it. Returns the value
    /// and the quantile actually reported (`None` below eleven samples,
    /// where no quantile has that support and the maximum is returned).
    pub fn supported_tail(&self, q: f64) -> (u64, Option<f64>) {
        match supported_rank(self.total, q) {
            Some(rank) => (self.at_rank(rank), Some(rank as f64 / self.total as f64)),
            None => (self.max, None),
        }
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
pub fn nearest_rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// The rank to report for tail quantile `q` so that at least ten samples
/// lie beyond it: the nearest rank of `q`, lowered to `n - 10` when `q`
/// has less support. `None` when `n <= 10`.
pub fn supported_rank(n: u64, q: f64) -> Option<u64> {
    (n > 10).then(|| nearest_rank(n, q).min(n - 10))
}

/// `num / den`, defined as 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of attempted ops that completed. Attempted ops are completed plus
/// errored ones; an empty run has nothing to complete and reads 1.
pub fn success_rate(completed: u64, errored: u64) -> f64 {
    let attempted = completed + errored;
    if attempted == 0 {
        1.0
    } else {
        completed as f64 / attempted as f64
    }
}

/// Growth of registry counter `name` between two snapshots. Counters are
/// monotone; a counter absent from a snapshot reads 0.
pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Median of `values` (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A metric name: 1–64 characters from `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Why a metric list cannot be printed as the result line, if it cannot.
pub fn validate_metrics(metrics: &[Metric]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
    }
    Ok(())
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric's value and unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lo = 0;
        for i in 0..BUCKETS {
            let (lo, width) = FineHist::bounds(i);
            assert_eq!(
                lo,
                expect_lo,
                "bucket {i} starts where {} ended",
                i.max(1) - 1
            );
            assert_eq!(FineHist::index(lo), i);
            assert_eq!(FineHist::index(lo + (width - 1)), i);
            assert!(
                width == 1 || width * SUB <= lo,
                "bucket {i} is wider than 1/64"
            );
            expect_lo = lo.wrapping_add(width);
        }
        assert_eq!(expect_lo, 0, "the last bucket ends at u64::MAX");
        assert_eq!(FineHist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sorted_sample_oracle() {
        let mut state = 7;
        for n in [1u64, 2, 10, 11, 99, 1000, 4321] {
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    // Heavy-tailed: mostly microseconds, some milliseconds.
                    let base = lcg(&mut state) % 5_000 + 200;
                    if lcg(&mut state).is_multiple_of(50) {
                        base * 1_000
                    } else {
                        base
                    }
                })
                .collect();
            let mut h = FineHist::default();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let truth = samples[nearest_rank(n, q) as usize - 1];
                let got = h.quantile(q);
                let tolerance = truth / SUB + 1;
                assert!(
                    got.abs_diff(truth) <= tolerance,
                    "n={n} q={q}: histogram says {got}, sorted samples say {truth}"
                );
            }
        }
    }

    #[test]
    fn tail_is_reported_only_with_ten_samples_beyond() {
        assert_eq!(supported_rank(10, 0.99), None);
        // 11 samples: only the lowest has ten beyond it.
        assert_eq!(supported_rank(11, 0.99), Some(1));
        // 999 samples: p99's nearest rank 990 leaves 9 beyond; lower it.
        assert_eq!(supported_rank(999, 0.99), Some(989));
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(supported_rank(1000, 0.99), Some(990));
        assert_eq!(supported_rank(100_000, 0.99), Some(99_000));
        // Values below 128 have exact buckets: 100 samples support p90.
        let mut h = FineHist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.supported_tail(0.99), (90, Some(0.9)));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut both) = (
            FineHist::default(),
            FineHist::default(),
            FineHist::default(),
        );
        for v in [3u64, 90, 1_000, 77_777, 5_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 130, 64_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn error_rate_denominator_counts_errored_ops() {
        assert_eq!(success_rate(0, 0), 1.0);
        assert_eq!(success_rate(100, 0), 1.0);
        // Errored ops are attempts too: 3 of 4 attempts completed.
        assert_eq!(success_rate(3, 1), 0.75);
        assert_eq!(success_rate(0, 5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn counter_deltas_subtract_the_earlier_snapshot() {
        let reg = gm_obs::Registry::new();
        reg.counter("mvcc.cow.pins").add(5);
        let before = reg.snapshot();
        reg.counter("mvcc.cow.pins").add(7);
        reg.counter("shard.pins").add(2);
        let after = reg.snapshot();
        assert_eq!(counter_delta(&before, &after, "mvcc.cow.pins"), 7);
        // Registered only after the first snapshot: counts from zero.
        assert_eq!(counter_delta(&before, &after, "shard.pins"), 2);
        assert_eq!(counter_delta(&before, &after, "never.registered"), 0);
        // Snapshots taken in the wrong order never underflow.
        assert_eq!(counter_delta(&after, &before, "mvcc.cow.pins"), 0);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in [
            "ops_per_s.linked",
            "p99_us.columnar",
            "setup_s",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "ops/s",
            "p99 us",
            "naïve",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_rejects_bad_metrics_and_renders_json() {
        let good = vec![Metric::new("p50_us.linked", "us", 1.25, 10)];
        assert!(validate_metrics(&good).is_ok());
        let mut twice = good.clone();
        twice.push(good[0].clone());
        assert!(validate_metrics(&twice).is_err());
        assert!(validate_metrics(&[Metric::new("x", "s", f64::NAN, 1)]).is_err());
        assert_eq!(
            result_json(true, 4, 0, &good),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"p50_us.linked\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
