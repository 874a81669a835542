//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the evaluation — transaction arrival times,
//! account selection, workload interleavings — draws from this in-repo
//! xoshiro256\*\* generator seeded explicitly by the experiment, so that a
//! given configuration always produces the same virtual-time results. (The
//! `rand` crate is deliberately not used in the library: pinning the
//! algorithm in-repo guarantees the published numbers in EXPERIMENTS.md stay
//! stable across dependency upgrades.)

/// A deterministic xoshiro256\*\* PRNG.
///
/// # Example
///
/// ```
/// use epcm_sim::rng::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        Rng { state }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a positive bound");
        // Lemire's method: rejection on the low product word.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // `low < bound`: possibly biased region, thresholds apply.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range requires lo < hi (got {lo}..{hi})");
        lo + self.below(hi - lo)
    }

    /// A uniformly distributed `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// An exponentially distributed value with the given mean. Used for
    /// Poisson inter-arrival times (the paper's 40 transactions/second
    /// arrival process).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "Rng::exponential requires a positive finite mean"
        );
        // Inverse transform; 1 - u avoids ln(0).
        -mean * (1.0 - self.unit_f64()).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::choose requires a non-empty slice");
        &items[self.index(items.len())]
    }
}

/// A Zipf-distributed sampler over `1..=n` with exponent `s`, using a
/// precomputed CDF (database and file access patterns are classically
/// Zipfian; the DBMS and scan workloads use this).
///
/// A draw is O(1) on average: a guide table (the cutpoint method) maps
/// the draw's top bits to the short run of CDF entries its rank lies in,
/// so the search covers that run instead of the whole CDF. The rank is
/// exactly the first CDF index whose value is at least the draw, as a
/// binary search over the whole CDF finds it.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first CDF index whose value is at least `j /
    /// buckets`, for `j` in `0..=buckets`: the ranks of the draws in
    /// bucket `j` lie in `guide[j]..=guide[j + 1]`.
    guide: Vec<u32>,
    /// `53 - log2(buckets)`: a 53-bit draw's bucket is `draw >> shift`.
    shift: u32,
}

/// Bits of a draw: [`Rng::unit_f64`]'s precision.
const DRAW_BITS: u32 = 53;

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `u32::MAX`, or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a positive support");
        assert!(u32::try_from(n).is_ok(), "Zipf support must fit a u32");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // At least 2n buckets (a power of two, so a bucket is a draw's
        // top bits), so even a uniform CDF has at most one rank boundary
        // in a bucket; with the end sentinel the table holds under 4n
        // entries. One merged pass: bucket edges and CDF both ascend.
        let buckets = (2 * n).next_power_of_two();
        let shift = DRAW_BITS - buckets.trailing_zeros();
        let mut guide = Vec::with_capacity(buckets as usize + 1);
        let mut i = 0;
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide, shift }
    }

    /// Draws a rank in `0..n` (0 = most popular). Consumes one
    /// [`Rng::next_u64`], as [`Rng::unit_f64`] does.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.rank_of(rng.next_u64() >> (64 - DRAW_BITS))
    }

    /// The rank of the 53-bit draw `x`, the uniform value `x / 2^53`:
    /// the first CDF index whose value is at least it.
    fn rank_of(&self, x: u64) -> u64 {
        let u = x as f64 * (1.0 / (1u64 << DRAW_BITS) as f64);
        let bucket = (x >> self.shift) as usize;
        let lo = self.guide[bucket] as usize;
        let hi = self.guide[bucket + 1] as usize;
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::seed_from(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed_from(11);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.below(8) as usize] += 1;
        }
        let expected = n / 8;
        for &c in &counts {
            // 5% tolerance is generous at this sample size.
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected as u64 / 20,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_bound_panics() {
        Rng::seed_from(0).below(0);
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..500 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Rng::seed_from(9);
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = Rng::seed_from(13);
        let mean = 25_000.0; // 40/s arrivals in microseconds
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.03,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(19);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::seed_from(31);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            let k = zipf.sample(&mut rng);
            assert!(k < 100);
            counts[k as usize] += 1;
        }
        // Rank 0 is the clear favourite and the tail is light.
        assert!(
            counts[0] > counts[10] * 2,
            "{} vs {}",
            counts[0],
            counts[10]
        );
        assert!(counts[0] > counts[99] * 10);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let zipf = Zipf::new(8, 0.0);
        let mut rng = Rng::seed_from(37);
        let mut counts = vec![0u32; 8];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 5_000).abs() < 500, "non-uniform: {counts:?}");
        }
    }

    /// The rank a full binary search over the CDF gives the 53-bit draw
    /// `x`: what [`Zipf::sample`] returned before it had a guide table.
    fn searched_rank(zipf: &Zipf, x: u64) -> u64 {
        let u = x as f64 * (1.0 / (1u64 << DRAW_BITS) as f64);
        zipf.cdf.partition_point(|&c| c < u) as u64
    }

    /// Checks `zipf`'s rank of every bucket edge of its guide table, and
    /// of the draw just below each, against the full binary search.
    fn assert_edges_match(zipf: &Zipf) {
        let max = (1u64 << DRAW_BITS) - 1;
        let buckets = 1u64 << (DRAW_BITS - zipf.shift);
        let edges =
            (0..=buckets).flat_map(|j| [j << zipf.shift, (j << zipf.shift).wrapping_sub(1)]);
        for x in edges.chain([0, max]).filter(|&x| x <= max) {
            assert_eq!(zipf.rank_of(x), searched_rank(zipf, x), "draw {x}");
        }
    }

    #[test]
    fn uniform_zipf_ranks_start_on_bucket_edges() {
        // With s = 0 and n a power of two every CDF value is a bucket edge,
        // so each guide entry must point at the rank equal to its edge.
        for n in [1, 2, 4, 8, 64, 4096] {
            assert_edges_match(&Zipf::new(n, 0.0));
        }
    }

    #[test]
    fn zipf_guide_table_stays_within_four_entries_per_rank() {
        for n in [1, 2, 3, 4, 5, 1000, 4096, 4097] {
            let zipf = Zipf::new(n, 0.9);
            assert!(zipf.guide.len() as u64 <= 4 * n, "n = {n}");
            assert_eq!(zipf.guide.len() - 1, 1 << (DRAW_BITS - zipf.shift));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The guided draw is the full binary search's, on random draws
        /// and on the edges of every bucket of the guide table (and of the
        /// draw range), and it consumes the generator as
        /// [`Rng::unit_f64`] does. `s` is 0 a quarter of the time (a
        /// uniform CDF, many of whose values are bucket edges), 40 a
        /// quarter (a CDF that is 1.0 after a handful of ranks), and
        /// otherwise anywhere in `0..3`.
        #[test]
        fn guided_zipf_matches_binary_search(
            n in 1u64..5000,
            s in 0.0f64..3.0,
            pick in 0u8..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let s = match pick {
                0 => 0.0,
                1 => 40.0,
                _ => s,
            };
            let zipf = Zipf::new(n, s);
            assert_edges_match(&zipf);
            let (mut guided, mut searched) = (Rng::seed_from(seed), Rng::seed_from(seed));
            for _ in 0..256 {
                let rank = zipf.sample(&mut guided);
                let u = searched.unit_f64();
                proptest::prop_assert_eq!(rank, zipf.cdf.partition_point(|&c| c < u) as u64);
                proptest::prop_assert!(rank < n);
                proptest::prop_assert_eq!(&guided, &searched);
            }
        }
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut rng = Rng::seed_from(23);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
