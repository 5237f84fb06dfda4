//! The benchmark's own arithmetic: a latency histogram, the percentile
//! rule, failure accounting, the two compression-ratio definitions, and
//! the metric-name grammar. Everything here is pure and unit-tested.

use std::time::Duration;

/// Sub-buckets per power of two: every bucket is at most 1/128 (0.78%)
/// of its lower bound wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-size log-linear histogram of nanosecond latencies.
///
/// Memory does not grow with the sample count, so a faster program (more
/// samples in a run) does not show up as a larger `mem_mb`. Quantiles
/// interpolate linearly inside the bucket that holds the rank, so they
/// are within 0.78% of the exact order statistic.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB + u64::from(shift) * SUB + sub) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    ((SUB + sub) << shift, 1 << shift)
}

impl Histogram {
    /// Record one latency.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the recorded latencies, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// The latency at quantile `q`, in microseconds; `None` with no
    /// samples.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= target {
                let (low, width) = bucket_range(i);
                let inside = ((target - seen as f64) / n as f64).clamp(0.0, 1.0);
                return Some((low as f64 + inside * width as f64) / 1e3);
            }
            seen += n;
        }
        None
    }
}

/// The percentile rule: a quantile may be reported only when at least
/// ten samples lie beyond it (so p99 needs 1000 samples).
pub fn tail_supported(samples: u64, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Failed share of attempted operations. A `Busy` refusal is a failure:
/// the caller did not get what it asked for.
pub fn failed_frac(attempted: u64, errors: u64, busy: u64, wrong: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (errors + busy + wrong) as f64 / attempted as f64
}

/// Compression ratio of independently compressed records: raw bytes
/// over compressed bytes, so higher is better (the inverse of Table 3).
pub fn record_ratio(raw_bytes: u64, compressed_bytes: u64) -> f64 {
    raw_bytes as f64 / compressed_bytes.max(1) as f64
}

/// Compression ratio of a store: live user bytes over what the store
/// holds for them, hot-tier memory plus live segment files.
pub fn store_ratio(live_user_bytes: u64, hot_bytes: u64, segment_bytes: u64) -> f64 {
    live_user_bytes as f64 / (hot_bytes + segment_bytes).max(1) as f64
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Smallest of `values`: the set-up time least disturbed by the rest of
/// the machine. 0 for none.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_round_trip() {
        let mut expected_low = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bucket_range(i);
            assert_eq!(low, expected_low, "bucket {i}");
            assert_eq!(bucket_index(low), i);
            assert_eq!(bucket_index(low + (width - 1)), i);
            expected_low = low.wrapping_add(width);
        }
        assert_eq!(expected_low, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_stay_within_bucket_error() {
        let mut h = Histogram::default();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile_us(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.008,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.sum_s() - 50.005).abs() < 1e-9);
        assert_eq!(Histogram::default().quantile_us(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_nanos(300));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.sum_s() - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1_000, 0.99));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert!(!tail_supported(9_999, 0.999));
        assert!(tail_supported(10_000, 0.999));
    }

    #[test]
    fn failed_frac_counts_busy_errors_and_wrong_results() {
        assert_eq!(failed_frac(100, 0, 0, 0), 0.0);
        assert_eq!(
            failed_frac(100, 0, 5, 0),
            0.05,
            "Busy refusals are failures"
        );
        assert_eq!(failed_frac(100, 1, 2, 3), 0.06);
        assert_eq!(failed_frac(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn compression_ratios_put_raw_bytes_on_top() {
        assert_eq!(record_ratio(1_000, 250), 4.0);
        assert!(
            record_ratio(100, 150) < 1.0,
            "outlier-heavy data can expand"
        );
        assert_eq!(store_ratio(1_000, 100, 400), 2.0);
        assert_eq!(
            store_ratio(1_000, 0, 0),
            1_000.0,
            "empty store divides by one"
        );
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "pbc-tier.cache_hit_rate", "0x", "a.b-c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "-lead", ".lead", "_lead", "has space", "slash/x", "µs"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }
}
