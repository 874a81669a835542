//! Application-directed read-ahead.
//!
//! §1: "Scientific computations using large data sets can often predict
//! their data access patterns well in advance, which allows the disk
//! access latency to be overlapped with current computation, if efficient
//! application-directed readahead ... \[is\] supported by the operating
//! system." The prefetching specialisation issues asynchronous reads for
//! the next `depth` file pages whenever a page faults; a later fault on a
//! prefetched page waits only for the *remaining* transfer time (zero if
//! computation covered the latency), instead of a full device access.
//!
//! Asynchrony on a single virtual timeline is modelled by arrival
//! timestamps: a prefetch issued at `t` for the `k`-th page ahead arrives
//! at `t + k × block_time`; the byte transfer happens at fault time but
//! the clock is only charged the unexpired remainder.
//!
//! An evicted page of a file segment goes back to its file block
//! ([`Disposition::File`]), so file pages get the engine's retried
//! writes, laundry rescue and writeback at close; anonymous pages swap.

use std::collections::BTreeMap;

use epcm_core::flags::PageFlags;
use epcm_core::types::{PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::disk::{Block, Device, FileId};

use crate::generic::{Disposition, Fill, GenericManager, Specialization};
use crate::manager::{Env, ManagerError, ManagerMode};

/// Counters for prefetch effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetches issued.
    pub issued: u64,
    /// Faults fully covered by a completed prefetch (no wait).
    pub full_hits: u64,
    /// Faults that waited for an in-flight prefetch (partial overlap).
    pub partial_hits: u64,
    /// Faults paying the full device latency.
    pub misses: u64,
    /// Total virtual time saved versus unprefetched accesses.
    pub saved: Micros,
}

/// The read-ahead specialisation for cached-file segments.
#[derive(Debug)]
pub struct PrefetchSpec {
    depth: u64,
    files: BTreeMap<u32, FileId>,
    inflight: BTreeMap<(u32, u64), Timestamp>,
    stats: PrefetchStats,
}

impl PrefetchSpec {
    /// Creates a spec prefetching `depth` pages ahead of each fault.
    pub fn new(depth: u64) -> Self {
        PrefetchSpec {
            depth,
            files: BTreeMap::new(),
            inflight: BTreeMap::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// Read-ahead depth in pages.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn block_time(device: Device) -> Micros {
        match device {
            Device::LocalDisk {
                sequential_block, ..
            } => sequential_block,
            Device::NetworkServer { per_block } => per_block,
            Device::Instant => Micros::ZERO,
        }
    }
}

impl Specialization for PrefetchSpec {
    fn attached(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        if let SegmentKind::CachedFile(f) = env.kernel.segment(segment)?.kind() {
            self.files.insert(segment.as_u32(), f);
        }
        Ok(())
    }

    fn fill(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Fill, ManagerError> {
        let Some(&file) = self.files.get(&seg.as_u32()) else {
            return Ok(Fill::Minimal); // anonymous segment
        };
        let size = env.store.size(file).map_err(epcm_core::KernelError::from)?;
        let offset = page.as_u64() * BASE_PAGE_SIZE;
        if offset >= size {
            return Ok(Fill::Minimal); // append
        }
        let n = BASE_PAGE_SIZE.min(size - offset) as usize;
        let now = env.kernel.now();
        let mut block = Block::zeroed();
        let full_latency = env.store.read(file, offset, &mut block.make_mut()[..n])?;
        match self.inflight.remove(&(seg.as_u32(), page.as_u64())) {
            Some(arrival) if arrival <= now => {
                // Transfer completed while the application computed.
                self.stats.full_hits += 1;
                self.stats.saved += full_latency;
            }
            Some(arrival) => {
                // Wait out the remainder only.
                let wait = arrival.duration_since(now);
                env.kernel.charge(wait);
                self.stats.partial_hits += 1;
                self.stats.saved += full_latency.saturating_sub(wait);
            }
            None => {
                env.kernel.charge(full_latency);
                self.stats.misses += 1;
            }
        }
        // Issue read-ahead for the pages following this one.
        let block_time = Self::block_time(env.store.device());
        let now = env.kernel.now();
        let mut k = 0;
        for i in 1..=self.depth {
            let p = page.as_u64() + i;
            if p * BASE_PAGE_SIZE >= size {
                break;
            }
            let key = (seg.as_u32(), p);
            let already_resident = env.kernel.segment(seg)?.entry(PageNumber(p)).is_some();
            if already_resident || self.inflight.contains_key(&key) {
                continue;
            }
            k += 1;
            self.inflight.insert(key, now + block_time * k);
            self.stats.issued += 1;
        }
        Ok(Fill::Filled(block))
    }

    fn evict_disposition(&self, seg: SegmentId, _page: PageNumber, _: PageFlags) -> Disposition {
        self.files
            .get(&seg.as_u32())
            .map_or(Disposition::Swap, |&f| Disposition::File(f))
    }
}

/// A cached-file manager with sequential read-ahead.
pub type PrefetchManager = GenericManager<PrefetchSpec>;

/// Creates a prefetching manager running in the faulting process.
pub fn prefetch_manager(depth: u64) -> PrefetchManager {
    GenericManager::new(PrefetchSpec::new(depth), ManagerMode::FaultingProcess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::AccessKind;
    use epcm_sim::disk::Device;

    /// Builds a machine with a prefetching manager over a 64-page file on
    /// a 1992 disk.
    fn setup(depth: u64) -> (Machine, epcm_core::ManagerId, SegmentId) {
        let mut m = Machine::builder(512).device(Device::disk_1992()).build();
        let id = m.register_manager(Box::new(prefetch_manager(depth)));
        m.set_default_manager(id);
        let content: Vec<u8> = (0..64 * BASE_PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        m.store_mut().create_with("data", content);
        let seg = m.open_file("data").unwrap();
        (m, id, seg)
    }

    fn spec_stats(m: &Machine, id: epcm_core::ManagerId) -> PrefetchStats {
        m.manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<PrefetchManager>()
            .unwrap()
            .spec()
            .stats()
    }

    /// Sequential scan with compute between pages: prefetch hides latency.
    fn scan(m: &mut Machine, seg: SegmentId, pages: u64, compute_per_page: Micros) -> Micros {
        let t0 = m.now();
        for p in 0..pages {
            m.touch(seg, p, AccessKind::Read).unwrap();
            m.kernel_mut().charge(compute_per_page); // the computation
        }
        m.now().duration_since(t0)
    }

    #[test]
    fn prefetch_hides_disk_latency_under_compute() {
        // Compute per page (3 ms) exceeds sequential block time (1.5 ms):
        // after the first miss, every fault should be a full hit.
        let (mut m0, id0, seg0) = setup(0);
        let unprefetched = scan(&mut m0, seg0, 32, Micros::from_millis(3));
        let (mut m8, id8, seg8) = setup(8);
        let prefetched = scan(&mut m8, seg8, 32, Micros::from_millis(3));
        assert!(
            prefetched < unprefetched,
            "prefetch {prefetched} not faster than {unprefetched}"
        );
        let s = spec_stats(&m8, id8);
        assert_eq!(s.misses, 1, "only the first access misses");
        assert!(s.full_hits >= 25, "full hits: {}", s.full_hits);
        assert!(s.saved > Micros::ZERO);
        let s0 = spec_stats(&m0, id0);
        assert_eq!(s0.issued, 0);
        let _ = seg0;
        let ring_ops = m8.kernel().stats().ring_ops;
        assert!(
            ring_ops >= 32,
            "every fill should ride the ring: {ring_ops}"
        );
    }

    #[test]
    fn prefetch_partial_overlap_with_thin_compute() {
        // Barely any compute: prefetches are still in flight at fault
        // time, so we see partial hits (waiting the remainder) — still an
        // improvement over full random-access latency.
        let (mut m, id, seg) = setup(4);
        let elapsed = scan(&mut m, seg, 16, Micros::new(100));
        let s = spec_stats(&m, id);
        assert!(s.partial_hits > 0, "expected partial hits: {s:?}");
        // Sequential transfers bound the total: far less than 16 random
        // accesses (16 ms each).
        assert!(elapsed < Micros::from_millis(16 * 16));
    }

    #[test]
    fn no_prefetch_past_end_of_file() {
        let (mut m, id, seg) = setup(128); // depth > file size
        m.touch(seg, 60, AccessKind::Read).unwrap();
        let s = spec_stats(&m, id);
        assert_eq!(s.issued, 3, "only pages 61..64 exist to prefetch");
    }

    #[test]
    fn anonymous_segments_fall_back_to_minimal() {
        let mut m = Machine::new(128);
        let id = m.register_manager(Box::new(prefetch_manager(8)));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(spec_stats(&m, id).issued, 0);
    }
}
