//! The generic (specialisable) segment manager.
//!
//! §2.2: "An application segment manager can be 'specialized' from a
//! generic or standard segment manager using inheritance in an
//! object-oriented implementation. ... The page replacement selection
//! routines and page fill routines can be easily specialized to particular
//! application requirements." In Rust the specialisation points are a
//! [`Specialization`] trait plugged into [`GenericManager`]: frame
//! placement constraints, page fill, and eviction disposition
//! (write-back vs discard) are the application-specific hooks; the free
//! pool, SPCM negotiation, replacement machinery and fault plumbing are
//! inherited.

use std::collections::BTreeSet;
use std::fmt;

use epcm_core::fault::{FaultEvent, FaultKind};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{RingOp, RingPort, DEFAULT_RING_CAPACITY};
use epcm_core::types::{ManagerId, PageNumber, SegmentId, SegmentKind};
use epcm_sim::disk::Block;

use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::policy::{ClockPolicy, Probe, ReplacementPolicy};
use crate::spcm::PhysConstraint;

/// What a specialisation's fill hook produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// Hand the frame over as-is (zero for fresh frames): the minimal
    /// fault.
    Minimal,
    /// The buffer holds the page's contents; copy them in before
    /// migration.
    Filled,
}

/// What to do with a dirty page being evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Write it to backing store first (conventional).
    WriteBack,
    /// Drop it — it can be discarded or regenerated more cheaply than
    /// paged (the paper's index-regeneration and garbage-page cases).
    Discard,
}

/// Application-specific policy hooks for [`GenericManager`].
///
/// Every hook has a conventional default, so a specialisation overrides
/// only what its application needs — "the application programmer's effort
/// ... is minimized, and focused on the application-specific policies".
pub trait Specialization: fmt::Debug {
    /// Notification that the surrounding manager took over `segment` —
    /// the hook where a specialisation records backing files or seeds
    /// per-segment state.
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for kernel failures.
    fn attached(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        let _ = (env, segment);
        Ok(())
    }

    /// Physical-placement constraint for the frame backing `page` of
    /// `seg` (page coloring, NUMA placement). Default: any frame.
    fn frame_constraint(&self, seg: SegmentId, page: PageNumber) -> PhysConstraint {
        let _ = (seg, page);
        PhysConstraint::Any
    }

    /// Produces the page's contents into `buf` (4 KB). Default: minimal
    /// fault.
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for store failures.
    fn fill(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        buf: &mut [u8],
    ) -> Result<Fill, ManagerError> {
        let _ = (env, seg, page, buf);
        Ok(Fill::Minimal)
    }

    /// Disposition of a dirty page at eviction. Default: write back.
    fn evict_disposition(&self, seg: SegmentId, page: PageNumber, flags: PageFlags) -> Disposition {
        let _ = (seg, page, flags);
        Disposition::WriteBack
    }

    /// Writes a page to backing store (only called when
    /// [`Specialization::evict_disposition`] said [`Disposition::WriteBack`]).
    /// Default: nowhere (data is lost; pair with `Discard` or a `fill`
    /// that regenerates).
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for store failures.
    fn write_back(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        data: &[u8],
    ) -> Result<(), ManagerError> {
        let _ = (env, seg, page, data);
        Ok(())
    }
}

/// A no-op specialisation: plain minimal-fault anonymous memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainSpec;

impl Specialization for PlainSpec {}

/// Counters for a generic manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenericStats {
    /// Faults handled.
    pub faults: u64,
    /// Minimal faults.
    pub minimal_faults: u64,
    /// Pages filled by the specialisation.
    pub fills: u64,
    /// Dirty pages written back at eviction.
    pub writebacks: u64,
    /// Dirty pages discarded at eviction.
    pub discards: u64,
    /// Pages evicted in total.
    pub reclaimed: u64,
    /// Faults whose placement constraint could not be honoured.
    pub constraint_misses: u64,
}

/// The specialisable base manager.
///
/// # Example
///
/// ```
/// use epcm_managers::generic::{GenericManager, PlainSpec};
/// use epcm_managers::{Machine, ManagerMode};
/// use epcm_core::{AccessKind, SegmentKind, UserId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new(256);
/// let id = machine.register_manager(Box::new(
///     GenericManager::new(PlainSpec, ManagerMode::FaultingProcess)));
/// let seg = machine.create_segment_with(
///     SegmentKind::Anonymous, 8, id, UserId::SYSTEM)?;
/// machine.touch(seg, 0, AccessKind::Write)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GenericManager<S> {
    id: ManagerId,
    mode: ManagerMode,
    spec: S,
    free_seg: Option<SegmentId>,
    policy: Box<dyn ReplacementPolicy>,
    target_free: u64,
    refill_batch: u64,
    managed: BTreeSet<u32>,
    stats: GenericStats,
    /// This manager's end of the kernel ABI. Specialised managers
    /// (prefetch, discard, coloring) issue every page operation as a
    /// single-op batch, which costs exactly a synchronous call.
    ring: RingPort,
}

impl<S: Specialization> GenericManager<S> {
    /// Creates a generic manager around `spec` with a clock replacement
    /// policy.
    pub fn new(spec: S, mode: ManagerMode) -> Self {
        GenericManager::with_policy(spec, mode, Box::new(ClockPolicy::new()))
    }

    /// Overrides the replacement policy — the other §2.2 specialisation
    /// point.
    pub fn with_policy(spec: S, mode: ManagerMode, policy: Box<dyn ReplacementPolicy>) -> Self {
        GenericManager {
            id: ManagerId(u32::MAX),
            mode,
            spec,
            free_seg: None,
            policy,
            target_free: 32,
            refill_batch: 32,
            managed: BTreeSet::new(),
            stats: GenericStats::default(),
            ring: RingPort::with_capacity(DEFAULT_RING_CAPACITY),
        }
    }

    /// `MigratePages` as a single-op ring batch.
    #[allow(clippy::too_many_arguments)]
    fn op_migrate_pages(
        &mut self,
        env: &mut Env<'_>,
        src: SegmentId,
        dst: SegmentId,
        src_page: PageNumber,
        dst_page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        let op = RingOp::MigratePages {
            src,
            dst,
            src_page,
            dst_page,
            count,
            set,
            clear,
        };
        Ok(self.ring.call(env.kernel, op)?)
    }

    /// The specialisation, for reading its state.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Mutable specialisation access (application-specific commands).
    pub fn spec_mut(&mut self) -> &mut S {
        &mut self.spec
    }

    /// Manager counters.
    pub fn generic_stats(&self) -> GenericStats {
        self.stats
    }

    /// The manager's free-page segment, once created.
    pub fn free_segment(&self) -> Option<SegmentId> {
        self.free_seg
    }

    fn free_seg(&mut self, env: &mut Env<'_>) -> Result<SegmentId, ManagerError> {
        if let Some(seg) = self.free_seg {
            return Ok(seg);
        }
        let frames = env.kernel.frames().len() as u64;
        let seg = env.kernel.create_segment(
            SegmentKind::FramePool,
            epcm_core::UserId::SYSTEM,
            self.id,
            1,
            frames,
        )?;
        self.free_seg = Some(seg);
        Ok(seg)
    }

    /// Finds (or obtains) a free frame satisfying `constraint`, falling
    /// back to any frame if the constraint cannot be met.
    fn take_free_slot(
        &mut self,
        env: &mut Env<'_>,
        constraint: PhysConstraint,
    ) -> Result<PageNumber, ManagerError> {
        let free_seg = self.free_seg(env)?;
        // Pass 1: a matching frame already in the pool.
        if let Some(p) = find_slot(env.kernel, free_seg, constraint)? {
            return Ok(p);
        }
        // Pass 2: ask the SPCM for constrained frames.
        let _ = env.spcm.request_frames(
            env.kernel,
            self.id,
            free_seg,
            self.refill_batch,
            constraint,
        )?;
        if let Some(p) = find_slot(env.kernel, free_seg, constraint)? {
            return Ok(p);
        }
        // Pass 3: degrade to any frame ("handled the same as a
        // conventional request for which the size requested is larger
        // than that available", §2.4).
        if !matches!(constraint, PhysConstraint::Any) {
            self.stats.constraint_misses += 1;
        }
        let _ = env.spcm.request_frames(
            env.kernel,
            self.id,
            free_seg,
            self.refill_batch,
            PhysConstraint::Any,
        )?;
        match find_slot(env.kernel, free_seg, PhysConstraint::Any)? {
            Some(p) => Ok(p),
            None => {
                // SPCM has nothing: reclaim one of our own pages.
                self.reclaim_one(env)?;
                find_slot(env.kernel, free_seg, PhysConstraint::Any)?
                    .ok_or(ManagerError::OutOfFrames { manager: self.id })
            }
        }
    }

    fn reclaim_one(&mut self, env: &mut Env<'_>) -> Result<bool, ManagerError> {
        let free_seg = self.free_seg(env)?;
        let victim = {
            let kernel = &mut *env.kernel;
            self.policy
                .select_victim(&mut |s, p| match kernel.get_page_attribute(s, p) {
                    Ok(attr) if attr.present => {
                        let flags = attr.flags;
                        if flags.contains(PageFlags::PINNED) {
                            Probe::Pinned
                        } else if flags.contains(PageFlags::REFERENCED) {
                            let _ = kernel.modify_page_flags(
                                s,
                                p,
                                1,
                                PageFlags::empty(),
                                PageFlags::REFERENCED,
                            );
                            Probe::Referenced
                        } else {
                            Probe::NotReferenced
                        }
                    }
                    _ => Probe::Gone,
                })
        };
        let Some((seg, page)) = victim else {
            return Ok(false);
        };
        let entry = env
            .kernel
            .segment(seg)?
            .entry(page)
            .ok_or(epcm_core::KernelError::PageNotPresent { segment: seg, page })?;
        if entry.flags.contains(PageFlags::DIRTY) {
            match self.spec.evict_disposition(seg, page, entry.flags) {
                Disposition::WriteBack => {
                    let block = env.kernel.manager_read_block(seg, page)?;
                    env.kernel.charge(env.kernel.costs().page_copy_4k);
                    self.spec.write_back(env, seg, page, block.as_slice())?;
                    self.stats.writebacks += 1;
                }
                Disposition::Discard => {
                    self.stats.discards += 1;
                }
            }
        }
        let slot = env.kernel.segment(free_seg)?.first_vacant();
        self.op_migrate_pages(
            env,
            seg,
            free_seg,
            page,
            slot,
            1,
            PageFlags::RW,
            PageFlags::DIRTY | PageFlags::REFERENCED,
        )?;
        self.policy.note_removed(seg, page);
        self.stats.reclaimed += 1;
        Ok(true)
    }

    /// Evicts up to `count` pages (public so applications can shrink their
    /// own footprint proactively, e.g. before yielding memory to the
    /// market).
    pub fn shrink(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        let mut done = 0;
        for _ in 0..count {
            if !self.reclaim_one(env)? {
                break;
            }
            done += 1;
        }
        Ok(done)
    }
}

fn find_slot(
    kernel: &Kernel,
    free_seg: SegmentId,
    constraint: PhysConstraint,
) -> Result<Option<PageNumber>, ManagerError> {
    let tiers = *kernel.tiers();
    Ok(kernel
        .segment(free_seg)?
        .resident()
        .find(|(_, e)| constraint.admits(e.frame, &tiers))
        .map(|(p, _)| p))
}

impl<S: Specialization + 'static> SegmentManager for GenericManager<S> {
    fn id(&self) -> ManagerId {
        self.id
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn set_id(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn mode(&self) -> ManagerMode {
        self.mode
    }

    fn attach(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        env.kernel.set_segment_manager(segment, self.id)?;
        self.managed.insert(segment.as_u32());
        self.spec.attached(env, segment)?;
        let resident: Vec<PageNumber> = env
            .kernel
            .segment(segment)?
            .resident()
            .map(|(p, _)| p)
            .collect();
        for p in resident {
            self.policy.note_resident(segment, p);
        }
        Ok(())
    }

    fn handle_fault(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        self.stats.faults += 1;
        let seg = fault.segment;
        let page = fault.page;
        if !self.managed.contains(&seg.as_u32()) {
            return Err(ManagerError::NotManaged { segment: seg });
        }
        match fault.kind {
            FaultKind::Missing => {
                env.kernel.charge(env.kernel.costs().manager_alloc);
                let constraint = self.spec.frame_constraint(seg, page);
                let free_seg = self.free_seg(env)?;
                let slot = self.take_free_slot(env, constraint)?;
                let mut block = Block::zeroed();
                match self.spec.fill(env, seg, page, block.make_mut())? {
                    Fill::Minimal => {
                        self.stats.minimal_faults += 1;
                    }
                    Fill::Filled => {
                        env.kernel.manager_write_block(free_seg, slot, block)?;
                        env.kernel.charge(env.kernel.costs().page_copy_4k);
                        self.stats.fills += 1;
                    }
                }
                self.op_migrate_pages(
                    env,
                    free_seg,
                    seg,
                    slot,
                    page,
                    1,
                    PageFlags::RW,
                    PageFlags::DIRTY | PageFlags::REFERENCED,
                )?;
                self.policy.note_resident(seg, page);
                Ok(())
            }
            FaultKind::Protection { flags } => {
                if flags.permits(fault.access) {
                    // The binding, not the page, denies this access.
                    return Err(ManagerError::ProtectionDenied { segment: seg, page });
                }
                // Otherwise generic managers keep their segments fully
                // accessible.
                let op = RingOp::ModifyPageFlags {
                    seg,
                    page,
                    count: 1,
                    set: PageFlags::RW,
                    clear: PageFlags::empty(),
                };
                self.ring.call(env.kernel, op)?;
                self.policy.note_referenced(seg, page);
                Ok(())
            }
            FaultKind::CopyOnWrite { .. } => {
                env.kernel.charge(env.kernel.costs().manager_alloc);
                let constraint = self.spec.frame_constraint(seg, page);
                let free_seg = self.free_seg(env)?;
                let slot = self.take_free_slot(env, constraint)?;
                self.op_migrate_pages(
                    env,
                    free_seg,
                    seg,
                    slot,
                    page,
                    1,
                    PageFlags::RW,
                    PageFlags::empty(),
                )?;
                self.policy.note_resident(seg, page);
                Ok(())
            }
        }
    }

    fn reclaim(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        let free_seg = self.free_seg(env)?;
        let have = env.kernel.resident_pages(free_seg)?;
        if have < count {
            self.shrink(env, count - have)?;
        }
        let give: Vec<PageNumber> = env
            .kernel
            .segment(free_seg)?
            .resident()
            .map(|(p, _)| p)
            .take(count as usize)
            .collect();
        env.spcm
            .return_frames(env.kernel, self.id, free_seg, &give)?;
        Ok(give.len() as u64)
    }

    fn segment_closed(
        &mut self,
        env: &mut Env<'_>,
        segment: SegmentId,
    ) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let pages: Vec<(PageNumber, PageFlags)> = env
            .kernel
            .segment(segment)?
            .resident()
            .map(|(p, e)| (p, e.flags))
            .collect();
        for (p, flags) in pages {
            if flags.contains(PageFlags::DIRTY)
                && self.spec.evict_disposition(segment, p, flags) == Disposition::WriteBack
            {
                let block = env.kernel.manager_read_block(segment, p)?;
                self.spec.write_back(env, segment, p, block.as_slice())?;
                self.stats.writebacks += 1;
            }
            let slot = env.kernel.segment(free_seg)?.first_vacant();
            self.op_migrate_pages(
                env,
                segment,
                free_seg,
                p,
                slot,
                1,
                PageFlags::RW,
                PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::PINNED,
            )?;
            self.policy.note_removed(segment, p);
        }
        self.managed.remove(&segment.as_u32());
        Ok(())
    }

    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        if env.kernel.resident_pages(free_seg)? < self.target_free / 2 {
            let _ = env.spcm.request_frames(
                env.kernel,
                self.id,
                free_seg,
                self.refill_batch,
                PhysConstraint::Any,
            )?;
        }
        Ok(())
    }

    fn free_frames(&self, kernel: &Kernel) -> u64 {
        self.free_seg
            .and_then(|s| kernel.resident_pages(s).ok())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, UserId, BASE_PAGE_SIZE};

    /// A fill hook that stamps every page with its page number.
    #[derive(Debug, Default)]
    struct StampSpec {
        filled: u64,
    }

    impl Specialization for StampSpec {
        fn fill(
            &mut self,
            _env: &mut Env<'_>,
            _seg: SegmentId,
            page: PageNumber,
            buf: &mut [u8],
        ) -> Result<Fill, ManagerError> {
            buf.fill(page.as_u64() as u8);
            self.filled += 1;
            Ok(Fill::Filled)
        }
    }

    fn machine_with<S: Specialization + 'static>(spec: S, frames: usize) -> (Machine, ManagerId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(GenericManager::new(
            spec,
            ManagerMode::FaultingProcess,
        )));
        m.set_default_manager(id);
        (m, id)
    }

    #[test]
    fn plain_spec_minimal_faults() {
        let (mut m, id) = machine_with(PlainSpec, 128);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        let mgr = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<GenericManager<PlainSpec>>()
            .unwrap();
        assert_eq!(mgr.generic_stats().minimal_faults, 1);
        assert_eq!(mgr.generic_stats().fills, 0);
    }

    #[test]
    fn fill_hook_provides_contents() {
        let (mut m, id) = machine_with(StampSpec::default(), 128);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        let mut buf = [0u8; 4];
        m.load(seg, 3 * BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 4]);
        let mgr = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<GenericManager<StampSpec>>()
            .unwrap();
        assert_eq!(mgr.spec().filled, 1);
        assert_eq!(mgr.generic_stats().fills, 1);
    }

    #[test]
    fn in_process_minimal_fault_costs_table1_row1() {
        let (mut m, _) = machine_with(PlainSpec, 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap(); // warm the pool
        let t0 = m.now();
        m.touch(seg, 1, AccessKind::Write).unwrap();
        let cost = m.now().duration_since(t0);
        assert_eq!(cost, m.kernel().costs().vpp_minimal_fault_inprocess());
    }

    /// A spec that discards dirty "scratch" pages instead of writing back.
    #[derive(Debug, Default)]
    struct ScratchSpec {
        write_backs: u64,
    }

    impl Specialization for ScratchSpec {
        fn evict_disposition(
            &self,
            _seg: SegmentId,
            _page: PageNumber,
            _flags: PageFlags,
        ) -> Disposition {
            Disposition::Discard
        }

        fn write_back(
            &mut self,
            _env: &mut Env<'_>,
            _seg: SegmentId,
            _page: PageNumber,
            _data: &[u8],
        ) -> Result<(), ManagerError> {
            self.write_backs += 1;
            Ok(())
        }
    }

    #[test]
    fn discard_disposition_skips_writeback() {
        let (mut m, id) = machine_with(ScratchSpec::default(), 128);
        let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.with_manager(id, |mgr, env| {
            // Force eviction (dirty pages get discarded).
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<GenericManager<ScratchSpec>>()
                .unwrap();
            mgr.shrink(env, 4).map(|_| ())
        })
        .unwrap();
        let mgr = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<GenericManager<ScratchSpec>>()
            .unwrap();
        assert!(mgr.generic_stats().discards >= 1);
        assert_eq!(mgr.spec().write_backs, 0);
        assert_eq!(mgr.generic_stats().writebacks, 0);
    }

    /// A placement spec that wants even-colored frames for even pages.
    #[derive(Debug)]
    struct ParitySpec;

    impl Specialization for ParitySpec {
        fn frame_constraint(&self, _seg: SegmentId, page: PageNumber) -> PhysConstraint {
            PhysConstraint::Color {
                color: (page.as_u64() % 2) as u32,
                colors: 2,
            }
        }
    }

    #[test]
    fn frame_constraints_are_honoured() {
        let (mut m, _) = machine_with(ParitySpec, 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        for (p, e) in m.kernel().segment(seg).unwrap().resident() {
            assert_eq!(
                e.frame.color(2),
                (p.as_u64() % 2) as u32,
                "page {p} got a frame of the wrong color"
            );
        }
    }

    #[test]
    fn shrink_and_refault_roundtrip() {
        let (mut m, id) = machine_with(PlainSpec, 128);
        let seg = m
            .create_segment_with(SegmentKind::Anonymous, 8, id, UserId::SYSTEM)
            .unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.with_manager(id, |mgr, env| {
            let mgr = mgr
                .as_any_mut()
                .downcast_mut::<GenericManager<PlainSpec>>()
                .unwrap();
            mgr.shrink(env, 4).map(|_| ())
        })
        .unwrap();
        assert!(m.kernel().resident_pages(seg).unwrap() <= 4);
        // Re-touch the evicted pages: fresh minimal faults.
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 8);
    }
}
