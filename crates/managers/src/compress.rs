//! Page compression for the `CompressedRam` memory tier — one of the
//! "variety of sophisticated schemes" (§2.1: "a process-level module can
//! readily implement ... page compression") that external page-cache
//! management enables without kernel changes.
//!
//! Pages are run-length encoded: pages full of sparse or repetitive data
//! (zeroed heaps, bitmap structures) shrink dramatically. The engine's
//! demotion path measures [`rle_len`] of the real bytes of every page
//! demoted into a `MemTier::CompressedRam` frame and accounts the work a
//! zram device would do in [`CompressStats`]; [`rle_compress`] builds
//! the encoding itself.

/// Run-length encodes `data`: `(count, byte)` pairs, count 1..=255.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut iter = data.iter().copied().peekable();
    while let Some(byte) = iter.next() {
        let mut count = 1u8;
        while count < u8::MAX && iter.peek() == Some(&byte) {
            iter.next();
            count += 1;
        }
        out.push(count);
        out.push(byte);
    }
    out
}

/// The length of [`rle_compress`]'s output, counted without building it:
/// a pair per 255 bytes, or part, of each run of equal bytes.
pub fn rle_len(data: &[u8]) -> usize {
    data.chunk_by(|a, b| a == b)
        .map(|run| run.len().div_ceil(usize::from(u8::MAX)) * 2)
        .sum()
}

/// Statistics of the pages compressed into zram frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressStats {
    /// Pages compressed.
    pub compressed: u64,
    /// Raw bytes compressed.
    pub raw_bytes: u64,
    /// Compressed bytes stored.
    pub stored_bytes: u64,
}

impl CompressStats {
    /// Overall compression ratio (raw/stored); 1.0 when nothing stored.
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reverses [`rle_compress`]: the oracle that shows the encoding
    /// loses nothing.
    fn rle_decompress(data: &[u8], out: &mut [u8]) {
        let mut pos = 0;
        for pair in data.chunks_exact(2) {
            let (count, byte) = (pair[0] as usize, pair[1]);
            out[pos..pos + count].fill(byte);
            pos += count;
        }
    }

    #[test]
    fn rle_roundtrip() {
        for data in [
            vec![0u8; 4096],
            (0..4096).map(|i| (i / 700) as u8).collect::<Vec<_>>(),
            (0..4096).map(|i| (i % 256) as u8).collect::<Vec<_>>(),
        ] {
            let c = rle_compress(&data);
            let mut back = vec![0u8; data.len()];
            rle_decompress(&c, &mut back);
            assert_eq!(back, data);
        }
    }

    #[test]
    fn rle_compresses_sparse_pages() {
        let sparse = vec![0u8; 4096];
        assert!(rle_compress(&sparse).len() < 64);
        let dense: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        assert!(rle_compress(&dense).len() > 4096, "incompressible grows");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Data built from runs of a few byte values, with runs of 255
        /// and 256 bytes (one pair and two) in every case.
        #[test]
        fn rle_len_is_the_encoding_length(
            runs in proptest::collection::vec((0u8..3, 1usize..600), 0..12),
            at in 0usize..12,
        ) {
            let mut runs = runs;
            let at = at.min(runs.len());
            runs.splice(at..at, [(7, 255), (8, 256)]);
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|&(byte, len)| std::iter::repeat_n(byte, len))
                .collect();
            prop_assert_eq!(rle_len(&data), rle_compress(&data).len());
        }
    }

    #[test]
    fn rle_len_counts_a_pair_per_255_bytes() {
        assert_eq!(rle_len(&[]), 0);
        assert_eq!(rle_len(&[0; 255]), 2);
        assert_eq!(rle_len(&[0; 256]), 4);
        assert_eq!(rle_len(&[0; 510]), 4);
        assert_eq!(rle_len(&[1, 1, 2]), 4);
    }
}
