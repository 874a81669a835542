//! A growable word bitmap: the one bit-set type behind the page tables'
//! residency bits and the managers' per-slot and per-page marks.

/// A set of page or slot numbers, stored as 64-bit words: bit `i` is
/// bit `i % 64` of word `i / 64`. Bits past the stored words read clear,
/// and the bitmap grows only when such a bit is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// A bitmap with bits `0..len` set, built a word at a time.
    pub fn filled(len: u64) -> Self {
        let mut words = vec![u64::MAX; word_index(len)];
        if !len.is_multiple_of(64) {
            words.push(bit(len) - 1);
        }
        Bitmap { words }
    }

    /// Sets bit `i`, growing the bitmap to reach it.
    #[inline]
    pub fn set(&mut self, i: u64) {
        let w = word_index(i);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= bit(i);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: u64) {
        if let Some(word) = self.words.get_mut(word_index(i)) {
            *word &= !bit(i);
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn test(&self, i: u64) -> bool {
        self.word(word_index(i)) & bit(i) != 0
    }

    /// The lowest clear bit.
    pub fn first_zero(&self) -> u64 {
        let full = self.words.iter().take_while(|&&w| w == u64::MAX).count();
        full as u64 * 64 + u64::from(self.word(full).trailing_ones())
    }

    /// The clear bits at or above `from`, ascending. Endless: every bit
    /// past the stored words is clear, so callers bound it.
    pub fn zeros_from(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let mut w = word_index(from);
        let mut zeros = !self.word(w) & (u64::MAX << (from % 64));
        std::iter::from_fn(move || loop {
            if zeros != 0 {
                return Some(take_lowest(&mut zeros, w));
            }
            w += 1;
            zeros = !self.word(w);
        })
    }

    /// The bits set here and clear in `mask`, ascending.
    #[inline]
    pub fn ones_except<'a>(&'a self, mask: &'a Bitmap) -> impl Iterator<Item = u64> + 'a {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut ones = word & !mask.word(w);
            std::iter::from_fn(move || (ones != 0).then(|| take_lowest(&mut ones, w)))
        })
    }

    /// The stored words; every word past them is clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }
}

/// Clears the lowest set bit of `word`, word `w` of a bitmap, and
/// returns its bit number.
#[inline]
fn take_lowest(word: &mut u64, w: usize) -> u64 {
    let i = w as u64 * 64 + u64::from(word.trailing_zeros());
    *word &= *word - 1;
    i
}

/// The word holding bit `i`. Saturates on targets narrower than 64 bits,
/// where no bitmap reaches such a bit.
#[inline]
fn word_index(i: u64) -> usize {
    usize::try_from(i / 64).unwrap_or(usize::MAX)
}

#[inline]
fn bit(i: u64) -> u64 {
    1 << (i % 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_sets_exactly_the_prefix() {
        assert_eq!(Bitmap::filled(0).words(), &[] as &[u64]);
        assert_eq!(Bitmap::filled(64).words(), &[u64::MAX]);
        assert_eq!(Bitmap::filled(70).words(), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(Bitmap::filled(70).first_zero(), 70);
    }

    #[test]
    fn set_clear_test_and_walks_across_word_boundaries() {
        let mut b = Bitmap::default();
        assert!(!b.test(64));
        for i in [0, 1, 63, 64, 65, 130] {
            b.set(i);
        }
        assert_eq!(b.words().len(), 3);
        assert!(b.test(63) && b.test(64) && b.test(65) && !b.test(66));
        let all = Bitmap::default();
        assert_eq!(
            b.ones_except(&all).collect::<Vec<_>>(),
            [0, 1, 63, 64, 65, 130]
        );
        assert_eq!(b.first_zero(), 2);
        let zeros: Vec<u64> = b.zeros_from(62).take(4).collect();
        assert_eq!(zeros, [62, 66, 67, 68]);
        b.clear(64);
        b.clear(1000);
        let mut mask = Bitmap::default();
        mask.set(0);
        mask.set(130);
        assert_eq!(b.ones_except(&mask).collect::<Vec<_>>(), [1, 63, 65]);
        assert_eq!(b.zeros_from(200).next(), Some(200));
    }
}
