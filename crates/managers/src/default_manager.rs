//! The default segment manager (§2.3) — the extended UCDS.
//!
//! Conventional programs never see external page-cache management: this
//! server-mode manager gives them a transparent demand-paged system built
//! entirely from the kernel's exported operations. It is the generic
//! manager engine ([`GenericManager`]) specialised by [`Ucds`], which
//! makes only the decisions that are UCDS's own:
//!
//! * file vs anonymous backing: a cached-file segment's pages are the
//!   file's blocks, an anonymous segment's pages swap;
//! * where a page is stored: its file block ([`Fill::File`],
//!   [`Disposition::File`]) or the engine's swap space
//!   ([`Disposition::Swap`]);
//! * appends: a fault past the end of a file allocates a 16 KB batch in
//!   one `MigratePages` (the paper's noted difference from Ultrix).
//!
//! Everything else — the free pool, the clock driven by protection-fault
//! reference sampling with batched re-enabling, the rescuable laundry
//! (the paper's migrate-it-back trick), retried store I/O and
//! quarantine, asynchronous writeback, and the tier demotion and
//! promotion stages — is the engine's, documented in [`crate::generic`].

use std::collections::BTreeMap;

use epcm_core::flags::PageFlags;
use epcm_core::types::{PageNumber, SegmentId, SegmentKind};
use epcm_sim::disk::{Block, FileId};

pub use crate::generic::{
    DefaultManagerConfig, DefaultManagerStats, IoRetryStats, PromotionStats, WritebackStats,
};
use crate::generic::{Disposition, Fill, GenericManager, Specialization};
use crate::manager::{Env, ManagerError, ManagerMode};
use crate::policy::ClockPolicy;

/// The UCDS specialisation: cached-file segments page against their
/// file, everything else against swap.
#[derive(Debug, Clone, Default)]
pub struct Ucds {
    /// Backing file of each cached-file segment taken over.
    files: BTreeMap<u32, FileId>,
}

impl Specialization for Ucds {
    fn attached(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        if let SegmentKind::CachedFile(f) = env.kernel.segment(segment)?.kind() {
            self.files.insert(segment.as_u32(), f);
        }
        Ok(())
    }

    fn fill(
        &mut self,
        _env: &mut Env<'_>,
        seg: SegmentId,
        _page: PageNumber,
        _block: &mut Block,
    ) -> Result<Fill, ManagerError> {
        Ok(self
            .files
            .get(&seg.as_u32())
            .map_or(Fill::Minimal, |&f| Fill::File(f)))
    }

    fn evict_disposition(
        &self,
        seg: SegmentId,
        _page: PageNumber,
        _flags: PageFlags,
    ) -> Disposition {
        self.files
            .get(&seg.as_u32())
            .map_or(Disposition::Swap, |&f| Disposition::File(f))
    }
}

/// The default segment manager.
///
/// # Example
///
/// ```
/// use epcm_managers::{DefaultSegmentManager, Machine};
/// use epcm_core::{AccessKind, SegmentKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_default_manager(512);
/// let heap = machine.create_segment(SegmentKind::Anonymous, 16)?;
/// machine.touch(heap, 7, AccessKind::Write)?;
/// # Ok(())
/// # }
/// ```
pub type DefaultSegmentManager = GenericManager<Ucds>;

impl GenericManager<Ucds> {
    /// A default manager in the paper's deployed configuration: a separate
    /// server process.
    pub fn server() -> Self {
        DefaultSegmentManager::with_config(ManagerMode::Server, DefaultManagerConfig::default())
    }

    /// Full control over mode and tuning.
    pub fn with_config(mode: ManagerMode, config: DefaultManagerConfig) -> Self {
        GenericManager::from_parts(Ucds::default(), mode, config, ClockPolicy::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::tier::{MemTier, TierLayout};
    use epcm_core::types::{AccessKind, ManagerId, BASE_PAGE_SIZE};

    fn machine_with(config: DefaultManagerConfig, frames: usize) -> (Machine, ManagerId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            config,
        )));
        m.set_default_manager(id);
        (m, id)
    }

    #[test]
    fn anonymous_first_touch_is_minimal_fault() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 1);
        // No file fill happened: store untouched.
        assert_eq!(m.store().read_count(), 0);
    }

    #[test]
    fn file_fault_fills_from_store() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let content: Vec<u8> = (0..8192u32).map(|i| (i % 256) as u8).collect();
        m.store_mut().create_with("f", content.clone());
        let seg = m.open_file("f").unwrap();
        let mut buf = vec![0u8; 8192];
        m.load(seg, 0, &mut buf).unwrap();
        assert_eq!(buf, content);
        assert!(m.store().read_count() >= 2);
    }

    #[test]
    fn append_allocates_16k_batches() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        m.store_mut().create("out", 0);
        let seg = m.open_file("out").unwrap();
        m.kernel_mut().resize_segment(seg, 16).unwrap();
        // Touch the first page beyond EOF: the manager should allocate 4.
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 4);
        // Next three pages are already resident: no further manager calls.
        let calls = m.stats().manager_calls;
        for p in 1..4 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        assert_eq!(m.stats().manager_calls, calls);
    }

    #[test]
    fn eviction_writes_back_and_rescues() {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            ..DefaultManagerConfig::default()
        };
        // Tiny machine: 24 frames total forces reclamation.
        let (mut m, id) = machine_with(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        // Write distinct data to many pages, exceeding memory.
        for p in 0..40u64 {
            let data = [p as u8; 16];
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &data).unwrap();
        }
        // Earlier pages were evicted; re-reading them faults and refills
        // from swap (or rescues from laundry) with data intact.
        for p in 0..40u64 {
            let mut buf = [0u8; 16];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 16], "page {p} lost its data");
        }
        let _ = id;
    }
    /// Overcommits a tiny machine until the free pool is wall-to-wall
    /// laundry, forcing the drop path; returns the machine + manager id.
    fn overcommitted(async_writeback: bool) -> (Machine, ManagerId, SegmentId) {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            async_writeback,
            writeback_window: 1,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        (m, id, seg)
    }

    fn verify_and_flush(m: &mut Machine, id: ManagerId, seg: SegmentId) -> WritebackStats {
        for p in 0..40u64 {
            let mut buf = [0u8; 16];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 16], "page {p} lost its data");
        }
        m.with_manager(id, |mgr, env| {
            let d = mgr
                .as_any_mut()
                .downcast_mut::<DefaultSegmentManager>()
                .unwrap();
            d.flush_writebacks(env);
            Ok(d.writeback_stats())
        })
        .unwrap()
    }

    #[test]
    fn laundry_drop_is_traced_and_loses_no_data() {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let tracer = m.enable_event_tracing(1 << 16);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        let stats = verify_and_flush(&mut m, id, seg);
        assert!(
            stats.laundry_dropped > 0,
            "workload never hit the drop path"
        );
        // Every drop is traced — never silent — and the data survived
        // the readback above, so no live page was lost.
        assert_eq!(
            tracer
                .kind_counts()
                .get("laundry_evicted")
                .copied()
                .unwrap_or(0),
            stats.laundry_dropped
        );
    }

    #[test]
    fn async_writeback_keeps_fault_path_clear_and_bills_equal_to_sync() {
        let (mut m_sync, id_s, seg_s) = overcommitted(false);
        let sync = verify_and_flush(&mut m_sync, id_s, seg_s);
        let (mut m_async, id_a, seg_a) = overcommitted(true);
        let async_ = verify_and_flush(&mut m_async, id_a, seg_a);
        assert!(sync.billed_us > 0, "no writebacks happened");
        // Identical store op streams → identical per-op latencies →
        // exact billing equality at window 1.
        assert_eq!(sync.billed_us, async_.billed_us);
        assert_eq!(sync.completed, async_.completed);
        // The fault path stopped paying for dirty-victim disk time.
        assert!(sync.dirty_victim_us > 0);
        assert_eq!(async_.dirty_victim_us, 0);
        // The pipeline fully drained.
        let in_flight = m_async
            .with_manager(id_a, |mgr, _| {
                Ok(mgr
                    .as_any()
                    .downcast_ref::<DefaultSegmentManager>()
                    .unwrap()
                    .writebacks_in_flight())
            })
            .unwrap();
        assert_eq!(in_flight, 0);
    }
    #[test]
    fn async_writeback_traces_issue_and_completion() {
        let (mut m, id, seg) = {
            let config = DefaultManagerConfig {
                target_free: 4,
                low_water: 1,
                refill_batch: 4,
                async_writeback: true,
                writeback_window: 2,
                writeback_servers: 1,
                ..DefaultManagerConfig::default()
            };
            let (mut m, id) = machine_with(config, 24);
            let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
            (m, id, seg)
        };
        let tracer = m.enable_event_tracing(1 << 16);
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        let stats = verify_and_flush(&mut m, id, seg);
        let counts = tracer.kind_counts();
        let issued = counts.get("writeback_issued").copied().unwrap_or(0);
        let completed = counts.get("writeback_completed").copied().unwrap_or(0);
        assert!(issued > 0, "async run issued no writebacks");
        assert_eq!(issued, completed, "pipeline left completions unbilled");
        assert_eq!(completed, stats.completed);
    }

    /// The default manager's writeback counters and in-flight count.
    fn wb_state(m: &Machine, id: ManagerId) -> (WritebackStats, u64, usize) {
        let mgr = m.manager(id).unwrap().as_any();
        let d = mgr.downcast_ref::<DefaultSegmentManager>().unwrap();
        let writebacks = d.manager_stats().writebacks;
        (d.writeback_stats(), writebacks, d.writebacks_in_flight())
    }

    #[test]
    fn sync_writeback_waits_for_its_own_ticket() {
        // The overcommitted run of `overcommitted(false)`, checked after
        // every operation: each writeback's ticket is waited for and
        // billed before the operation returns, and never as a stall.
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            writeback_window: 1,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        let check = |m: &Machine| {
            let (wb, _, in_flight) = wb_state(m, id);
            assert_eq!(in_flight, 0, "a sync writeback left its ticket in flight");
            assert_eq!(wb.stalls, 0, "a sync writeback was counted as a stall");
        };
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
            check(&m);
        }
        for p in 0..40u64 {
            let mut buf = [0u8; 16];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 16], "page {p} lost its data");
            check(&m);
        }
        let (wb, writebacks, _) = wb_state(&m, id);
        assert!(writebacks > 0, "no writebacks happened");
        assert_eq!(wb.completed, writebacks);
    }

    #[test]
    fn sync_writeback_completion_heats_no_evicted_page() {
        // A 16/64/0 tiered machine, promotion on, no demotion: a dirty
        // SlowMem page is the clock's first unreferenced victim. Its
        // completion bills after the page left its segment, so it finds
        // no page below DRAM to heat.
        let layout = TierLayout::new(16, 64, 0);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let config = DefaultManagerConfig {
            promotion_budget: 4,
            demote_batch: 0,
            ..DefaultManagerConfig::default()
        };
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            config,
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 48).unwrap();
        for p in 0..48 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        // Only the DRAM pages keep their reference bit.
        let slow: Vec<PageNumber> = {
            let k = m.kernel_mut();
            let resident: Vec<_> = k.segment(seg).unwrap().resident().collect();
            let slow = resident
                .iter()
                .filter(|(_, e)| layout.tier_of(e.frame) != MemTier::Dram)
                .map(|&(p, _)| p)
                .collect();
            for (p, e) in resident {
                let (set, clear) = if layout.tier_of(e.frame) == MemTier::Dram {
                    (PageFlags::REFERENCED, PageFlags::empty())
                } else {
                    (PageFlags::empty(), PageFlags::REFERENCED)
                };
                k.modify_page_flags(seg, p, 1, set, clear).unwrap();
            }
            slow
        };
        let (heat, writebacks, completed) = m
            .with_manager(id, |mgr, env| {
                let d = mgr
                    .as_any_mut()
                    .downcast_mut::<DefaultSegmentManager>()
                    .unwrap();
                let heat = d.promotion_stats().heat_events;
                assert_eq!(d.shrink(env, 1)?, 1);
                Ok((
                    d.promotion_stats().heat_events - heat,
                    d.manager_stats().writebacks,
                    d.writeback_stats().completed,
                ))
            })
            .unwrap();
        let segment = m.kernel().segment(seg).unwrap();
        let gone = slow.iter().filter(|&&p| segment.entry(p).is_none());
        assert_eq!(gone.count(), 1, "the victim was not a SlowMem page");
        assert_eq!((writebacks, completed), (1, 1));
        assert_eq!(heat, 0, "the completion heated the page it evicted");
    }

    #[test]
    fn async_close_bills_its_file_writebacks_before_returning() {
        // Laundry is in flight behind a one-ticket window when a file
        // segment with dirty pages closes. The close waits for its own
        // tickets, which queue behind that laundry on the one disk arm,
        // so every ticket submitted before it has billed too.
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            async_writeback: true,
            writeback_window: 1,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let anon = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..40u64 {
            m.store_bytes(anon, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        m.store_mut().create("out", 0);
        let file = m.open_file("out").unwrap();
        m.uio_write(file, 0, &[7; 2 * BASE_PAGE_SIZE as usize])
            .unwrap();
        let (before, writebacks, in_flight) = wb_state(&m, id);
        assert!(in_flight > 0, "no laundry in flight at the close");
        m.close_segment(file).unwrap();
        let (after, closed_writebacks, in_flight) = wb_state(&m, id);
        assert!(
            closed_writebacks > writebacks,
            "the close wrote nothing back"
        );
        assert_eq!(in_flight, 0);
        assert_eq!(after.completed, closed_writebacks);
        assert_eq!(after.stalls, before.stalls, "the close's wait is no stall");
    }

    #[test]
    fn close_writes_file_pages_back() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        m.store_mut().create("out", 0);
        let seg = m.open_file("out").unwrap();
        m.uio_write(seg, 0, b"persist me").unwrap();
        m.close_segment(seg).unwrap();
        let f = m.store().find("out").unwrap();
        let mut buf = [0u8; 10];
        m.store_mut().read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn sampling_generates_protection_faults_and_restores_batches() {
        let config = DefaultManagerConfig {
            sample_batch: 8,
            protection_batch: 4,
            ..DefaultManagerConfig::default()
        };
        let (mut m, _) = machine_with(config, 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.tick().unwrap(); // revokes protection on the 8 resident pages
        let faults_before = m.kernel_stats().faults_protection;
        m.touch(seg, 0, AccessKind::Read).unwrap(); // sampling fault
        assert_eq!(m.kernel_stats().faults_protection, faults_before + 1);
        // The batch restored pages 0..4: touching them is fault-free.
        let calls = m.stats().manager_calls;
        for p in 1..4 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        assert_eq!(m.stats().manager_calls, calls);
        // Page 4 still revoked: next touch faults again.
        m.touch(seg, 4, AccessKind::Read).unwrap();
        assert_eq!(m.stats().manager_calls, calls + 1);
    }

    #[test]
    fn sampling_sweep_wraps_once_its_cursor_segment_closes() {
        // Regression: a sweep that stopped inside the highest managed
        // segment left its cursor there, and once that segment closed
        // the next sweep spun forever looking for it.
        let config = DefaultManagerConfig {
            sample_batch: 4,
            ..DefaultManagerConfig::default()
        };
        let (mut m, _) = machine_with(config, 256);
        let a = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        let b = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        for p in 0..2 {
            m.touch(a, p, AccessKind::Write).unwrap();
        }
        for p in 0..8 {
            m.touch(b, p, AccessKind::Write).unwrap();
        }
        m.tick().unwrap(); // revokes a's two pages and b's first two
        m.touch(a, 0, AccessKind::Read).unwrap(); // restores a's pages
        m.close_segment(b).unwrap();
        m.tick().unwrap(); // finds nothing at or past the cursor: wraps
        m.tick().unwrap(); // sweeps `a` again from its first page
        let faults = m.kernel_stats().faults_protection;
        m.touch(a, 0, AccessKind::Read).unwrap();
        assert_eq!(m.kernel_stats().faults_protection, faults + 1);
    }

    #[test]
    fn forced_reclaim_returns_frames_to_spcm() {
        let (mut m, id) = machine_with(DefaultManagerConfig::default(), 128);
        let seg = m.create_segment(SegmentKind::Anonymous, 32).unwrap();
        for p in 0..32 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let granted_before = m.spcm().granted_to(id);
        assert!(granted_before >= 32);
        let returned = m.with_manager(id, |mgr, env| mgr.reclaim(env, 16)).unwrap();
        assert_eq!(returned, 16);
        assert_eq!(m.spcm().granted_to(id), granted_before - 16);
    }

    #[test]
    fn cow_fault_is_serviced() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let source = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.store_bytes(source, 0, b"shared").unwrap();
        let child = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.kernel_mut()
            .bind_region(
                child,
                PageNumber(0),
                4,
                source,
                PageNumber(0),
                true,
                PageFlags::RW,
            )
            .unwrap();
        m.store_bytes(child, 0, b"BRANCH").unwrap();
        let mut buf = [0u8; 6];
        m.load(source, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        m.load(child, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"BRANCH");
        assert_eq!(m.kernel_stats().faults_cow, 1);
    }
}
