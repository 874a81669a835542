//! Fixed log-spaced latency histograms for per-class tail accounting.
//!
//! The buckets are a compile-time constant ladder — `16 µs · 2^(i/4)`
//! for `i = 0..64`, i.e. four buckets per octave from 16 µs to ~880 ms
//! — so recording and quantile extraction are pure integer operations:
//! two histograms fed the same samples in any order are identical, and
//! a quantile is a deterministic function of the counts alone. That is
//! what lets per-class p50/p99/p999 appear in byte-compared bench
//! output.

/// Upper bounds (inclusive, µs) of the 64 log-spaced buckets:
/// `round(16 · 2^(i/4))`. The last bucket additionally absorbs every
/// larger sample.
pub const BUCKET_BOUNDS_US: [u64; 64] = [
    16, 19, 23, 27, 32, 38, 45, 54, 64, 76, 91, 108, 128, 152, 181, 215, 256, 304, 362, 431, 512,
    609, 724, 861, 1024, 1218, 1448, 1722, 2048, 2435, 2896, 3444, 4096, 4871, 5793, 6889, 8192,
    9742, 11585, 13777, 16384, 19484, 23170, 27554, 32768, 38968, 46341, 55109, 65536, 77936,
    92682, 110218, 131072, 155872, 185364, 220436, 262144, 311744, 370728, 440872, 524288, 623487,
    741455, 881744,
];

/// A latency histogram over [`BUCKET_BOUNDS_US`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKET_BOUNDS_US.len()],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; BUCKET_BOUNDS_US.len()],
            total: 0,
        }
    }

    /// Records one sample (µs). Samples above the last bound land in
    /// the last bucket.
    pub fn record(&mut self, us: u64) {
        // The bounds are strictly increasing, so the first bucket with
        // `us <= bound` is exactly the partition point of `bound < us`;
        // the clamp realises the last-bucket-absorbs rule for samples
        // above every bound.
        let idx = BUCKET_BOUNDS_US
            .partition_point(|&b| b < us)
            .min(BUCKET_BOUNDS_US.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Samples recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The quantile `q_milli / 1000` as a bucket upper bound (µs): the
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(total · q_milli / 1000)`. Returns 0 for an empty
    /// histogram. Integer arithmetic throughout.
    pub fn quantile_milli(&self, q_milli: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // The multiply can exceed u64 (total near u64::MAX, q_milli up
        // to 1000); widen to u128 so the rank never wraps. The result
        // fits back in u64 because q_milli ≤ 1000 and we divide by 1000.
        let target = ((self.total as u128 * q_milli as u128).div_ceil(1000)).max(1);
        let mut cum: u128 = 0;
        for (idx, &count) in self.counts.iter().enumerate() {
            cum += count as u128;
            if cum >= target {
                return BUCKET_BOUNDS_US[idx];
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }

    /// Convenience: the median, p99 and p999 bucket bounds (µs).
    pub fn tail(&self) -> (u64, u64, u64) {
        (
            self.quantile_milli(500),
            self.quantile_milli(990),
            self.quantile_milli(999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing() {
        assert!(BUCKET_BOUNDS_US.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantiles_are_order_independent_and_monotone() {
        let samples = [20u64, 100, 100, 5_000, 70_000, 70_000, 70_000, 900_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &s in &samples {
            a.record(s);
        }
        for &s in samples.iter().rev() {
            b.record(s);
        }
        assert_eq!(a, b);
        let (p50, p99, p999) = a.tail();
        assert!(p50 <= p99 && p99 <= p999);
        // The all-above-range sample lands in the last bucket.
        assert_eq!(p999, BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
    }

    #[test]
    fn single_sample_hits_its_own_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(65_000);
        assert_eq!(h.quantile_milli(500), 65_536);
        assert_eq!(h.quantile_milli(999), 65_536);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(LatencyHistogram::new().quantile_milli(990), 0);
    }

    #[test]
    fn quantile_rank_does_not_overflow_for_huge_totals() {
        // Regression: `total * q_milli` used to be computed in u64, so a
        // total of u64::MAX / 500 overflowed at q_milli = 990 and the
        // rank wrapped to a tiny value, reporting the first non-empty
        // bucket as every quantile.
        let total = u64::MAX / 500;
        let mut h = LatencyHistogram::new();
        // `total` is odd: the median rank is ceil(total / 2), so the low
        // bucket takes the larger half for the median to land in it.
        h.counts[4] = total - total / 2;
        h.counts[40] = total / 2;
        h.total = total;
        assert_eq!(h.quantile_milli(500), BUCKET_BOUNDS_US[4]);
        assert_eq!(h.quantile_milli(990), BUCKET_BOUNDS_US[40]);
        assert_eq!(h.quantile_milli(999), BUCKET_BOUNDS_US[40]);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        /// The reference bucket rule `record` must match: first bucket
        /// whose inclusive bound holds the sample, last bucket absorbs.
        fn linear_scan_bucket(us: u64) -> usize {
            BUCKET_BOUNDS_US
                .iter()
                .position(|&b| us <= b)
                .unwrap_or(BUCKET_BOUNDS_US.len() - 1)
        }

        proptest! {
            #[test]
            fn partition_point_matches_linear_scan(
                us in 0u64..=2 * BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
            ) {
                let mut h = LatencyHistogram::new();
                h.record(us);
                prop_assert_eq!(h.counts[linear_scan_bucket(us)], 1);
                prop_assert_eq!(h.total(), 1);
            }
        }
    }
}
