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
//! Pages that are not garbage keep the engine's default, swap, so the
//! manager is safe for general heaps: they get retried writes,
//! quarantine, laundry rescue and asynchronous writeback like any other
//! store-backed page. Dropped pages are counted in
//! [`DefaultManagerStats::discards`](crate::DefaultManagerStats::discards).

use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::types::{PageNumber, SegmentId};

use crate::generic::{Disposition, GenericManager, Specialization};
use crate::manager::ManagerMode;

/// The discardable-pages specialisation.
///
/// Pages carrying [`PageFlags::MANAGER_A`] (set via [`mark_discardable`])
/// are dropped at eviction and refault as minimal faults; everything else
/// swaps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscardableSpec;

impl Specialization for DiscardableSpec {
    fn evict_disposition(
        &self,
        _seg: SegmentId,
        _page: PageNumber,
        flags: PageFlags,
    ) -> Disposition {
        if flags.contains(PageFlags::MANAGER_A) {
            Disposition::Discard
        } else {
            Disposition::Swap
        }
    }
}

/// A manager whose applications can mark pages as garbage.
pub type DiscardableManager = GenericManager<DiscardableSpec>;

/// Creates a discardable-pages manager running in the faulting process.
pub fn discardable_manager() -> DiscardableManager {
    GenericManager::new(DiscardableSpec, ManagerMode::FaultingProcess)
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
    use crate::spcm::AllocationPolicy;
    use epcm_core::types::{AccessKind, SegmentKind, BASE_PAGE_SIZE};

    fn setup(frames: usize) -> (Machine, epcm_core::ManagerId, SegmentId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(discardable_manager()));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        (m, id, seg)
    }

    fn stats(m: &Machine, id: epcm_core::ManagerId) -> crate::DefaultManagerStats {
        m.manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<DiscardableManager>()
            .unwrap()
            .manager_stats()
    }

    fn shrink(m: &mut Machine, id: epcm_core::ManagerId, count: u64) {
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<DiscardableManager>()
                .unwrap();
            mgr.shrink(env, count).map(|_| ())
        })
        .unwrap();
    }

    #[test]
    fn live_pages_round_trip_through_swap() {
        // A 48-frame quota: 96 dirty pages that are not garbage cannot all
        // stay resident, nor all stay rescuable in the pool.
        let mut m = Machine::builder(256)
            .allocation(AllocationPolicy::Quota { per_manager: 48 })
            .build();
        let id = m.register_manager(Box::new(discardable_manager()));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 96).unwrap();
        for p in 0..96u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 8])
                .unwrap();
        }
        for p in (0..96u64).rev() {
            let mut buf = [0u8; 8];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 8], "live page {p} lost");
        }
        let s = stats(&m, id);
        assert!(s.swap_ins > 0 && s.writebacks > 0, "{s:?}");
        assert_eq!(s.discards, 0);
    }

    #[test]
    fn discarded_page_drops_its_swap_copy() {
        let (mut m, id, seg) = setup(64);
        m.store_bytes(seg, 0, b"old data").unwrap();
        // Swapped out, then rescued from the laundry: a swap copy exists.
        shrink(&mut m, id, 1);
        assert_eq!(stats(&m, id).writebacks, 1);
        m.store_bytes(seg, 0, b"garbage!").unwrap();
        mark_discardable(m.kernel_mut(), seg, PageNumber(0), 1).unwrap();
        shrink(&mut m, id, 1);
        assert_eq!(stats(&m, id).discards, 1);
        // The refault is a minimal fault, not a read of the stale copy.
        let reads = m.store().read_count();
        m.touch(seg, 0, AccessKind::Read).unwrap();
        assert_eq!(m.store().read_count(), reads);
        assert_eq!(stats(&m, id).swap_ins, 0);
    }

    #[test]
    fn garbage_pages_discarded_without_io() {
        let (mut m, id, seg) = setup(64);
        for p in 0..8u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[0xAA; 8]).unwrap();
        }
        mark_discardable(m.kernel_mut(), seg, PageNumber(0), 8).unwrap();
        let writes_before = m.store().write_count();
        shrink(&mut m, id, 8);
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
        shrink(&mut m, id, 1);
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
            shrink(&mut m, id, 24);
            m.store().write_count()
        };
        let unmarked_io = run(false);
        let marked_io = run(true);
        assert!(marked_io < unmarked_io);
        assert_eq!(marked_io, 0);
    }
}
