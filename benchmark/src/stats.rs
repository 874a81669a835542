//! Percentiles, medians and the determinism digest.
//!
//! Percentiles are nearest-rank over exact samples, and a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it: a
//! p999 needs 10 000 samples, a p99 1 000 and a median 20. Quantiles are
//! given in thousandths (`500`, `990`, `999`) so the rank is integer
//! arithmetic and never off by one from float rounding.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// 1-based nearest rank of quantile `q_milli / 1000` over `n` samples,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn rank(n: u64, q_milli: u64) -> Option<u64> {
    let rank = (n * q_milli).div_ceil(1000).max(1);
    (n >= rank + MIN_BEYOND).then_some(rank)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], q_milli: u64) -> Option<u64> {
    let r = rank(sorted.len() as u64, q_milli)?;
    Some(sorted[r as usize - 1])
}

/// Exact counts of integer samples (virtual µs per op): a dense array for
/// the small values that dominate, an ordered map above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    dense: Vec<u64>,
    sparse: BTreeMap<u64, u64>,
    n: u64,
}

const DENSE: u64 = 4096;

impl Default for Counts {
    fn default() -> Self {
        Counts {
            dense: vec![0; DENSE as usize],
            sparse: BTreeMap::new(),
            n: 0,
        }
    }
}

impl Counts {
    /// Records `count` samples of `value`.
    pub fn add(&mut self, value: u64, count: u64) {
        if value < DENSE {
            self.dense[value as usize] += count;
        } else {
            *self.sparse.entry(value).or_insert(0) += count;
        }
        self.n += count;
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.add(value, 1);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile, under the [`MIN_BEYOND`] rule.
    pub fn percentile(&self, q_milli: u64) -> Option<u64> {
        let r = rank(self.n, q_milli)?;
        let dense = self.dense.iter().enumerate().map(|(v, &c)| (v as u64, c));
        let sparse = self.sparse.iter().map(|(&v, &c)| (v, c));
        let mut seen = 0;
        dense
            .chain(sparse)
            .find(|&(_, c)| {
                seen += c;
                seen >= r
            })
            .map(|(v, _)| v)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&sorted, 500), Some(5_000));
        assert_eq!(percentile(&sorted, 990), Some(9_900));
        assert_eq!(percentile(&sorted, 999), Some(9_990));
        // One sample short: only nine lie beyond the p999 rank.
        assert_eq!(percentile(&sorted[..9_999], 999), None);
        assert_eq!(percentile(&sorted[..9_999], 990), Some(9_900));
        assert_eq!(percentile(&sorted[..999], 990), None);
        assert_eq!(percentile(&sorted[..20], 500), Some(10));
        assert_eq!(percentile(&sorted[..19], 500), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn counts_agree_with_sorted_samples() {
        let mut samples: Vec<u64> = (0..20_000u64).map(|i| (i * 7919) % 9_001).collect();
        let mut counts = Counts::default();
        for &s in &samples {
            counts.record(s);
        }
        samples.sort_unstable();
        for q in [500, 990, 999] {
            assert_eq!(counts.percentile(q), percentile(&samples, q), "q {q}");
        }
        assert_eq!(counts.len(), 20_000);
        let mut few = Counts::default();
        few.add(3, 9_999);
        assert_eq!(few.percentile(999), None);
        assert_eq!(few.percentile(990), Some(3));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        assert_eq!(fnv1a(*b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
    }
}
