//! Compressed swap — one of the "variety of sophisticated schemes"
//! (§2.1: "a process-level module can readily implement ... page
//! compression") that external page-cache management enables without
//! kernel changes.
//!
//! Evicted pages are run-length encoded before hitting backing store;
//! pages full of sparse or repetitive data (zeroed heaps, bitmap
//! structures) shrink dramatically, cutting both the I/O time and the
//! swap footprint. The compression is real: bytes round-trip exactly.
//!
//! The same scheme backs the `CompressedRam` memory tier: the default
//! manager's demotion path reuses [`rle_compress`] and [`CompressStats`]
//! to account the work a zram device would do when a page is demoted
//! into a `MemTier::CompressedRam` frame.

use std::collections::BTreeMap;

use epcm_core::types::{PageNumber, SegmentId, BASE_PAGE_SIZE};
use epcm_sim::disk::{Block, FileId};

use crate::generic::{Fill, GenericManager, Specialization};
use crate::manager::{Env, ManagerError, ManagerMode};

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

/// Reverses [`rle_compress`].
pub fn rle_decompress(data: &[u8], out: &mut [u8]) {
    let mut pos = 0;
    let mut chunks = data.chunks_exact(2);
    for pair in &mut chunks {
        let (count, byte) = (pair[0] as usize, pair[1]);
        out[pos..pos + count].fill(byte);
        pos += count;
    }
}

/// Statistics of the compressed swap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressStats {
    /// Pages compressed out.
    pub compressed: u64,
    /// Pages decompressed back in.
    pub decompressed: u64,
    /// Raw bytes swapped.
    pub raw_bytes: u64,
    /// Compressed bytes actually written.
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

/// Location of one compressed blob in the swap log: `(offset, length)`.
type Blob = (u64, u64);
/// A segment's swap log: the file plus each page's blob location.
type SwapLog = (FileId, BTreeMap<u64, Blob>);

/// The compressing-swap specialisation.
#[derive(Debug, Default)]
pub struct CompressSpec {
    /// Per-segment swap log.
    swap: BTreeMap<u32, SwapLog>,
    stats: CompressStats,
}

impl CompressSpec {
    /// Creates the specialisation.
    pub fn new() -> Self {
        CompressSpec::default()
    }

    /// Compression statistics.
    pub fn stats(&self) -> CompressStats {
        self.stats
    }
}

impl Specialization for CompressSpec {
    fn fill(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        block: &mut Block,
    ) -> Result<Fill, ManagerError> {
        let Some((file, blobs)) = self.swap.get_mut(&seg.as_u32()) else {
            return Ok(Fill::Minimal);
        };
        let Some(&(offset, len)) = blobs.get(&page.as_u64()) else {
            return Ok(Fill::Minimal);
        };
        let mut compressed = vec![0u8; len as usize];
        let latency = env.store.read(*file, offset, &mut compressed)?;
        env.kernel.charge(latency);
        rle_decompress(&compressed, block.make_mut());
        self.stats.decompressed += 1;
        Ok(Fill::Filled)
    }

    fn write_back(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        data: &[u8],
    ) -> Result<(), ManagerError> {
        let compressed = rle_compress(data);
        let (file, blobs) = match self.swap.get_mut(&seg.as_u32()) {
            Some(e) => e,
            None => {
                let f = env.store.create(&format!("zswap-{}", seg.as_u32()), 0);
                self.swap
                    .entry(seg.as_u32())
                    .or_insert((f, BTreeMap::new()))
            }
        };
        // Append-only log of compressed blobs (a real implementation
        // would compact; the space accounting is what we demonstrate).
        let offset = env
            .store
            .size(*file)
            .map_err(epcm_core::KernelError::from)?;
        let latency = env.store.write(*file, offset, &compressed)?;
        env.kernel.charge(latency);
        blobs.insert(page.as_u64(), (offset, compressed.len() as u64));
        self.stats.compressed += 1;
        self.stats.raw_bytes += data.len() as u64;
        self.stats.stored_bytes += compressed.len() as u64;
        let _ = BASE_PAGE_SIZE;
        Ok(())
    }
}

/// A manager that swaps pages compressed.
pub type CompressingManager = GenericManager<CompressSpec>;

/// Creates a compressing-swap manager running in the faulting process.
pub fn compressing_manager() -> CompressingManager {
    GenericManager::new(CompressSpec::new(), ManagerMode::FaultingProcess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::SegmentKind;

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

    fn setup() -> (Machine, epcm_core::ManagerId, SegmentId) {
        let mut m = Machine::new(64);
        let id = m.register_manager(Box::new(compressing_manager()));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        (m, id, seg)
    }

    #[test]
    fn evicted_pages_roundtrip_compressed() {
        let (mut m, id, seg) = setup();
        // Compressible content: long runs.
        for p in 0..16u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 2048])
                .unwrap();
        }
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<CompressingManager>()
                .unwrap();
            mgr.shrink(env, 16).map(|_| ())
        })
        .unwrap();
        for p in 0..16u64 {
            let mut buf = [0u8; 2048];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 2048], "page {p} corrupted by compression");
        }
        let stats = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<CompressingManager>()
            .unwrap()
            .spec()
            .stats();
        assert_eq!(stats.compressed, 16);
        assert_eq!(stats.decompressed, 16);
        assert!(
            stats.ratio() > 50.0,
            "runs of one byte should compress >50x, got {:.1}",
            stats.ratio()
        );
    }

    #[test]
    fn swap_footprint_is_smaller_than_raw() {
        let (mut m, id, seg) = setup();
        for p in 0..8u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[0xEE; 4096])
                .unwrap();
        }
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<CompressingManager>()
                .unwrap();
            mgr.shrink(env, 8).map(|_| ())
        })
        .unwrap();
        let swap = m.store().find("zswap-1").expect("swap file exists");
        let size = m.store().size(swap).unwrap();
        assert!(size < 8 * 4096 / 10, "swap file {size} bytes for 32 KB raw");
    }
}
