//! Discardable pages: eviction without writeback.
//!
//! The paper's related-work section describes Subramanian's Mach external
//! pager that "takes account of dirty pages that do not need to be written
//! back", showing "significant performance improvements for a number of ML
//! programs by exploiting the fact that garbage pages can be discarded
//! without writeback" — and notes that both problems she hit (no knowledge
//! of physical memory availability, spurious zero-fills) are solved by
//! external page-cache management with no special kernel mechanism. This
//! manager is that case study on V++: an application (say, a garbage
//! collector) marks regions as garbage; at eviction time the manager drops
//! them instead of paging them out, and a later fault delivers a fresh
//! minimal-fault page.
//!
//! Non-discardable dirty pages are swapped conventionally, so the manager
//! is safe for general heaps.

use std::collections::{BTreeMap, BTreeSet};

use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::types::{PageNumber, SegmentId, BASE_PAGE_SIZE};
use epcm_sim::disk::{Block, FileId};

use crate::generic::{Disposition, Fill, GenericManager, Specialization};
use crate::manager::{Env, ManagerError, ManagerMode};

/// The discardable-pages specialisation.
///
/// Pages carrying [`PageFlags::MANAGER_A`] (set via [`mark_discardable`])
/// are dropped at eviction; everything else swaps normally.
#[derive(Debug, Default)]
pub struct DiscardableSpec {
    /// Per-segment swap file and the set of pages with valid swap copies.
    swap: BTreeMap<u32, (FileId, BTreeSet<u64>)>,
    /// Dirty pages discarded instead of written back.
    discarded: u64,
}

impl DiscardableSpec {
    /// Creates the specialisation.
    pub fn new() -> Self {
        DiscardableSpec::default()
    }

    /// Number of dirty pages dropped without writeback so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

impl Specialization for DiscardableSpec {
    fn fill(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        block: &mut Block,
    ) -> Result<Fill, ManagerError> {
        if let Some((file, swapped)) = self.swap.get_mut(&seg.as_u32()) {
            // The swap copy stays valid while the page is clean; dirty
            // evictions overwrite it (dropping the entry here would lose
            // data on a later clean eviction).
            if swapped.contains(&page.as_u64()) {
                let offset = page.as_u64() * BASE_PAGE_SIZE;
                let latency = env.store.read(*file, offset, block.make_mut())?;
                env.kernel.charge(latency);
                return Ok(Fill::Filled);
            }
        }
        // Discarded or never-written page: minimal fault (fresh zero/stale
        // same-user frame) — exactly the "reallocation without zero-fill"
        // saving the paper credits V++ with.
        Ok(Fill::Minimal)
    }

    fn evict_disposition(
        &self,
        _seg: SegmentId,
        _page: PageNumber,
        flags: PageFlags,
    ) -> Disposition {
        if flags.contains(PageFlags::MANAGER_A) {
            Disposition::Discard
        } else {
            Disposition::WriteBack
        }
    }

    fn write_back(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        data: &[u8],
    ) -> Result<(), ManagerError> {
        let (file, swapped) = match self.swap.get_mut(&seg.as_u32()) {
            Some(entry) => entry,
            None => {
                let f = env.store.create(&format!("gc-swap-{}", seg.as_u32()), 0);
                self.swap
                    .entry(seg.as_u32())
                    .or_insert((f, BTreeSet::new()))
            }
        };
        let latency = env
            .store
            .write(*file, page.as_u64() * BASE_PAGE_SIZE, data)?;
        env.kernel.charge(latency);
        swapped.insert(page.as_u64());
        Ok(())
    }
}

/// A manager whose applications can mark pages as garbage.
pub type DiscardableManager = GenericManager<DiscardableSpec>;

/// Creates a discardable-pages manager running in the faulting process.
pub fn discardable_manager() -> DiscardableManager {
    GenericManager::new(DiscardableSpec::new(), ManagerMode::FaultingProcess)
}

/// Marks `count` pages starting at `page` as discardable: their contents
/// need never reach backing store. Missing pages are skipped (a page that
/// was never materialised is trivially discardable).
///
/// # Errors
///
/// Kernel range/segment errors.
pub fn mark_discardable(
    kernel: &mut Kernel,
    seg: SegmentId,
    page: PageNumber,
    count: u64,
) -> Result<u64, epcm_core::KernelError> {
    let mut marked = 0;
    for i in 0..count {
        let p = page.offset(i);
        if kernel.segment(seg)?.entry(p).is_some() {
            kernel.modify_page_flags(seg, p, 1, PageFlags::MANAGER_A, PageFlags::empty())?;
            marked += 1;
        }
    }
    Ok(marked)
}

/// Clears the discardable mark (the data became live again).
///
/// # Errors
///
/// Kernel range/segment errors.
pub fn unmark_discardable(
    kernel: &mut Kernel,
    seg: SegmentId,
    page: PageNumber,
    count: u64,
) -> Result<(), epcm_core::KernelError> {
    for i in 0..count {
        let p = page.offset(i);
        if kernel.segment(seg)?.entry(p).is_some() {
            kernel.modify_page_flags(seg, p, 1, PageFlags::empty(), PageFlags::MANAGER_A)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, SegmentKind};

    fn setup(frames: usize) -> (Machine, epcm_core::ManagerId, SegmentId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(discardable_manager()));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        (m, id, seg)
    }

    #[test]
    fn live_pages_survive_eviction_via_swap() {
        let (mut m, id, seg) = setup(64);
        for p in 0..8u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 8])
                .unwrap();
        }
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<DiscardableManager>()
                .unwrap();
            mgr.shrink(env, 8).map(|_| ())
        })
        .unwrap();
        for p in 0..8u64 {
            let mut buf = [0u8; 8];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 8], "live page {p} lost");
        }
        // Swap file exists and was written.
        assert!(m.store().write_count() >= 8);
    }

    #[test]
    fn garbage_pages_discarded_without_io() {
        let (mut m, id, seg) = setup(64);
        for p in 0..8u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[0xAA; 8]).unwrap();
        }
        mark_discardable(m.kernel_mut(), seg, PageNumber(0), 8).unwrap();
        let writes_before = m.store().write_count();
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<DiscardableManager>()
                .unwrap();
            mgr.shrink(env, 8).map(|_| ())
        })
        .unwrap();
        assert_eq!(
            m.store().write_count(),
            writes_before,
            "garbage pages must not be written back"
        );
        // Refaulting succeeds with a minimal fault. Contents are
        // unspecified: V++ deliberately skips the zero-fill when a frame
        // returns to the same user — the exact saving Subramanian had to
        // hack around in Mach (the collector overwrites the page anyway).
        let mut buf = [0u8; 8];
        m.load(seg, 0, &mut buf).unwrap();
        assert_eq!(m.kernel_stats().zero_fills, 0);
    }

    #[test]
    fn unmark_restores_writeback() {
        let (mut m, id, seg) = setup(64);
        m.store_bytes(seg, 0, b"keep me!").unwrap();
        mark_discardable(m.kernel_mut(), seg, PageNumber(0), 1).unwrap();
        unmark_discardable(m.kernel_mut(), seg, PageNumber(0), 1).unwrap();
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<DiscardableManager>()
                .unwrap();
            mgr.shrink(env, 1).map(|_| ())
        })
        .unwrap();
        let mut buf = [0u8; 8];
        m.load(seg, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"keep me!");
    }

    #[test]
    fn mark_skips_missing_pages() {
        let (mut m, _, seg) = setup(64);
        m.touch(seg, 2, AccessKind::Write).unwrap();
        let marked = mark_discardable(m.kernel_mut(), seg, PageNumber(0), 8).unwrap();
        assert_eq!(marked, 1, "only the resident page can carry the flag");
    }

    #[test]
    fn discard_savings_visible_in_io_counts() {
        // The Subramanian result, miniature: identical workloads, with and
        // without discard marking; the marked run does less I/O.
        let run = |mark: bool| {
            let (mut m, id, seg) = setup(48);
            for p in 0..32u64 {
                m.store_bytes(seg, p * BASE_PAGE_SIZE, &[1u8; 64]).unwrap();
                if mark {
                    // Everything written is garbage (collector semantics).
                    mark_discardable(m.kernel_mut(), seg, PageNumber(p), 1).unwrap();
                }
            }
            m.with_manager(id, |mgr, env| {
                let mgr = mgr
                    .as_any_mut()
                    .downcast_mut::<DiscardableManager>()
                    .unwrap();
                mgr.shrink(env, 24).map(|_| ())
            })
            .unwrap();
            m.store().write_count()
        };
        let unmarked_io = run(false);
        let marked_io = run(true);
        assert!(marked_io < unmarked_io);
        assert_eq!(marked_io, 0);
    }
}
