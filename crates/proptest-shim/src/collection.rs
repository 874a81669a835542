//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::{Strategy, TestRng};

/// An inclusive size bound for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// A strategy for vectors whose length lies in `size` and whose elements
/// come from `elem`.
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeSet::new();
        // Duplicates shrink the set; retry a bounded number of times so
        // narrow domains (e.g. 0..32) still usually reach the target size.
        let mut attempts = 0;
        while out.len() < n && attempts < n * 10 + 16 {
            out.insert(self.elem.generate(rng));
            attempts += 1;
        }
        out
    }
}

/// A strategy for ordered sets with `size` elements (fewer if the element
/// domain is too narrow) drawn from `elem`.
pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    BTreeSetStrategy {
        elem,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_range() {
        let s = vec(0u64..5, 2..6);
        let mut rng = TestRng::from_name("vec");
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn btree_set_is_nonempty_for_positive_min() {
        let s = btree_set(0u64..4, 1..10);
        let mut rng = TestRng::from_name("set");
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(!v.is_empty());
            assert!(v.len() <= 9);
        }
    }
}
