//! Stage one of the engine: the free pool, fault handling and clock
//! eviction. A missing page is rescued from the laundry, read back from
//! swap or filled by the spec; minimal and copy-on-write faults hand over
//! a pooled frame (an append, a run of them); and when the SPCM refuses a
//! refill, the clock reclaims managed pages into the pool, demoting dirty
//! DRAM victims a tier down where it can.

use super::*;

impl<S: Specialization, P: ReplacementPolicy> GenericManager<S, P> {
    pub(super) fn free_seg(&mut self, env: &mut Env<'_>) -> Result<SegmentId, ManagerError> {
        if let Some(seg) = self.free_seg {
            return Ok(seg);
        }
        // Size the free segment to the whole machine: slots are cheap and
        // this lets the pool grow to whatever the SPCM will grant.
        let frames = env.kernel.frames().len() as u64;
        let seg = env.kernel.create_segment(
            SegmentKind::FramePool,
            epcm_core::UserId::SYSTEM,
            self.id,
            frames,
        )?;
        self.free_seg = Some(seg);
        Ok(seg)
    }

    pub(super) fn free_count(&self, kernel: &Kernel) -> u64 {
        self.free_seg
            .and_then(|s| kernel.resident_pages(s).ok())
            .unwrap_or(0)
    }

    /// Ensures at least `want` frames sit in the free pool, requesting
    /// from the SPCM and then reclaiming managed pages if refused.
    pub(super) fn ensure_free(&mut self, env: &mut Env<'_>, want: u64) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let have = self.free_count(env.kernel);
        if have >= want {
            return Ok(());
        }
        let ask = (want - have).max(self.config.refill_batch);
        env.spcm
            .request_frames(env.kernel, self.id, free_seg, ask, PhysConstraint::Any)?;
        if self.free_count(env.kernel) >= want {
            return Ok(());
        }
        // SPCM would not (fully) provide: reclaim our own pages.
        let deficit = want - self.free_count(env.kernel);
        self.reclaim_into_pool(env, deficit)?;
        if self.free_count(env.kernel) >= want {
            Ok(())
        } else {
            Err(ManagerError::OutOfFrames { manager: self.id })
        }
    }

    /// Takes one free slot whose frame satisfies `constraint` — a pooled
    /// one, else one of a constrained SPCM grant — and otherwise any free
    /// slot ("handled the same as a conventional request for which the
    /// size requested is larger than that available", §2.4), evicting the
    /// oldest laundry entry if every free frame is acting as a laundry
    /// page.
    fn take_free_slot(
        &mut self,
        env: &mut Env<'_>,
        constraint: PhysConstraint,
    ) -> Result<PageNumber, ManagerError> {
        let free_seg = self.free_seg(env)?;
        if !matches!(constraint, PhysConstraint::Any) {
            let placed = |kernel: &Kernel| -> Result<_, ManagerError> {
                let tiers = *kernel.tiers();
                let pool = kernel.segment(free_seg)?;
                Ok(clean_slots(pool, &self.laundry).find(|&p| {
                    pool.entry(p)
                        .is_some_and(|e| constraint.admits(e.frame, &tiers))
                }))
            };
            if let Some(p) = placed(env.kernel)? {
                return Ok(p);
            }
            let _ = env.spcm.request_frames(
                env.kernel,
                self.id,
                free_seg,
                self.config.refill_batch,
                constraint,
            )?;
            if let Some(p) = placed(env.kernel)? {
                return Ok(p);
            }
            self.stats.constraint_misses += 1;
        }
        self.ensure_free(env, 1)?;
        let pick = clean_slots(env.kernel.segment(free_seg)?, &self.laundry).next();
        if let Some(p) = pick {
            return Ok(p);
        }
        // All free frames hold laundry: evict the oldest live mapping.
        // Its clean copy is already on the store (written at reclaim
        // time), so no data is lost — but an in-flight writeback must
        // finish before the frame's bytes are clobbered, and the evicted
        // rescue opportunity is traced and counted, never silent.
        while let Some(key) = self.laundry.pop_oldest() {
            self.stall_until_clean(env, key);
            if let Some(slot) = self.laundry.remove(key) {
                self.wb_stats.laundry_dropped += 1;
                self.trace(
                    env.kernel,
                    EventKind::LaundryEvicted {
                        manager: self.id.0,
                        segment: key.0 as u64,
                        page: key.1,
                    },
                );
                return Ok(slot);
            }
        }
        Err(ManagerError::OutOfFrames { manager: self.id })
    }

    /// Reclaims `count` pages from managed segments into the free pool,
    /// writing dirty data back first. Reclaimed pages stay rescuable until
    /// their frame is reused. Dirty victims whose store is dead are
    /// quarantined in place and another victim is tried, so a failing
    /// device degrades capacity instead of wedging replacement.
    pub(super) fn reclaim_into_pool(
        &mut self,
        env: &mut Env<'_>,
        count: u64,
    ) -> Result<u64, ManagerError> {
        let free_seg = self.free_seg(env)?;
        let mut reclaimed = 0;
        let mut demoted = 0;
        let mut deferred: VecDeque<(SegmentId, PageNumber)> = VecDeque::new();
        let mut attempts = 0;
        while reclaimed < count && attempts < count * 2 + 8 + demoted {
            attempts += 1;
            // The flags the probe read for the page it picked: the
            // victim's one `GetPageAttributes`.
            let mut seen = PageFlags::empty();
            let victim = {
                let kernel = &mut *env.kernel;
                let ring = &mut self.ring;
                self.policy.select_victim(&mut |s, p| {
                    match kernel.get_page_attribute(s, p) {
                        Ok(attr) if attr.present => {
                            let flags = attr.flags;
                            seen = flags;
                            if flags.contains(PageFlags::PINNED) {
                                Probe::Pinned
                            } else if flags.contains(PageFlags::REFERENCED) {
                                // Second chance: clear the bit.
                                let _ = ring.call(kernel, clear_referenced(s, p));
                                Probe::Referenced
                            } else {
                                Probe::NotReferenced
                            }
                        }
                        _ => Probe::Gone,
                    }
                })
            };
            let Some((seg, page)) = victim else { break };
            // Demotion stage of the clock: a dirty second-chance victim
            // sitting on a DRAM frame trades frames with a spare
            // lower-tier pool slot instead of paying writeback I/O. Its
            // data stays resident one rung down the ladder; the DRAM
            // frame surfaces in the free pool for the next allocation.
            // The clock tends to sweep DRAM-framed pages before it pools
            // any lower-tier frame, so an eligible victim with no partner
            // yet is deferred — it demotes as soon as a later eviction
            // pools one — rather than evicted.
            if demoted + (deferred.len() as u64) < self.config.demote_batch
                && seen.contains(PageFlags::DIRTY)
            {
                match self.try_demote(env, free_seg, seg, page)? {
                    Demotion::Done => {
                        demoted += 1;
                        continue;
                    }
                    Demotion::NoTarget => {
                        deferred.push_back((seg, page));
                        continue;
                    }
                    Demotion::Ineligible => {}
                }
            }
            if self.evict(env, free_seg, seg, page)? {
                reclaimed += 1;
                // That eviction may have pooled a lower-tier frame:
                // drain the deferred demotions while partners last.
                while let Some(&(dseg, dpage)) = deferred.front() {
                    match self.try_demote(env, free_seg, dseg, dpage)? {
                        Demotion::Done => {
                            deferred.pop_front();
                            demoted += 1;
                        }
                        Demotion::Ineligible => {
                            deferred.pop_front();
                        }
                        Demotion::NoTarget => break,
                    }
                }
            }
        }
        if reclaimed > 0 {
            self.trace(
                env.kernel,
                EventKind::Reclaim {
                    manager: self.id.0,
                    frames: reclaimed,
                    forced: false,
                },
            );
        }
        Ok(reclaimed)
    }

    /// Disposes of one page's data as the spec says and migrates the page
    /// into the free pool; a store-backed page stays rescuable there.
    /// Returns whether a frame was actually freed: a dirty store-backed
    /// page whose store is permanently failing is quarantined in place
    /// instead (`false`), leaving the caller to pick another victim.
    fn evict(
        &mut self,
        env: &mut Env<'_>,
        free_seg: SegmentId,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<bool, ManagerError> {
        let entry = env
            .kernel
            .segment(seg)?
            .entry(page)
            .ok_or(epcm_core::KernelError::PageNotPresent { segment: seg, page })?;
        let disposition = self.spec.evict_disposition(seg, page, entry.flags);
        // Synchronous mode: the victim's writeback is waited for at once.
        let wait = !self.config.async_writeback;
        let mut ticket = None;
        if disposition == Disposition::Discard {
            // A dropped page's swap copy is stale: its next fault must
            // be the spec's fill, not a swap-in.
            if let Some(ms) = self.managed.get_mut(&seg.as_u32()) {
                ms.swapped.clear(page.as_u64());
            }
        }
        if entry.flags.contains(PageFlags::DIRTY) {
            match disposition {
                Disposition::Discard => self.stats.discards += 1,
                Disposition::File(_) | Disposition::Swap => {
                    let before = env.kernel.now();
                    match self.writeback(env, seg, page, disposition, wait) {
                        Ok(t) => ticket = t,
                        Err(ManagerError::Store(FileStoreError::Io { .. })) => {
                            self.quarantine_in_place(env, seg, page)?;
                            return Ok(false);
                        }
                        Err(other) => return Err(other),
                    }
                    // Fault-path time spent on this dirty victim: copy +
                    // latency waited for in sync mode; only injected-fault
                    // retry backoff in async mode (the disk time bills at
                    // completion instead).
                    self.wb_stats.dirty_victim_us +=
                        env.kernel.now().duration_since(before).as_micros();
                }
            }
        }
        // Destination: first empty slot in the free segment.
        let slot = env.kernel.segment(free_seg)?.first_vacant();
        self.op_migrate_pages(env, (seg, page), (free_seg, slot), 1, SHED)?;
        let key = (seg.as_u32(), page.as_u64());
        self.heat.moved(key);
        if matches!(disposition, Disposition::File(_) | Disposition::Swap) {
            self.laundry.insert(key, slot);
            match ticket {
                // Waited for: it bills now that the page has left.
                Some(_) if wait => self.drain_writebacks(env),
                Some(t) => self.laundry.mark_unclean(key, t, slot),
                None => {}
            }
        }
        self.stats.reclaimed += 1;
        Ok(true)
    }

    /// Handles a missing-page fault: a laundry rescue, else a swap-in,
    /// else what the spec's fill hook says.
    pub(super) fn handle_missing(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let seg = fault.segment;
        let page = fault.page;
        let free_seg = self.free_seg(env)?;

        // Laundry rescue: the frame is still intact in the free pool. A
        // forced SPCM seizure may have taken the frame out from under the
        // map, so verify the slot is still resident; a stale entry falls
        // through to a normal fill.
        let key = (seg.as_u32(), page.as_u64());
        if let Some(slot) = self.laundry.remove(key) {
            if env.kernel.segment(free_seg)?.entry(slot).is_some() {
                self.op_migrate_pages(env, (free_seg, slot), (seg, page), 1, PageFlags::empty())?;
                self.policy.note_resident(seg, page);
                self.stats.laundry_rescues += 1;
                self.stats.migrate_calls += 1;
                // A rescue IS a fault-time re-reference: the page came
                // back before its frame was reused. Heat it if it landed
                // below DRAM.
                self.note_heat(env.kernel, seg, page);
                return Ok(());
            }
        }

        let Some(ms) = self.managed.get(&seg.as_u32()) else {
            return Err(ManagerError::NotManaged { segment: seg });
        };
        let swap_copy = ms.swap_copy(page);
        env.kernel.charge(env.kernel.costs().manager_alloc);
        // The store to read from, and whether it is swap, or the block
        // the spec filled.
        let (store, filled) = match swap_copy {
            Some(f) => (Some((f, true)), None),
            None => match self.spec.fill(env, seg, page)? {
                Fill::Minimal => return self.minimal_fault(env, free_seg, seg, page, false),
                Fill::Filled(block) => (None, Some(block)),
                Fill::File(f) => {
                    let size = env.store.size(f).map_err(epcm_core::KernelError::from)?;
                    if page.as_u64() * BASE_PAGE_SIZE >= size {
                        return self.minimal_fault(env, free_seg, seg, page, true);
                    }
                    (Some((f, false)), None)
                }
            },
        };
        let constraint = self.spec.frame_constraint(seg, page);
        let slot = self.take_free_slot(env, constraint)?;
        // The spec's block, the store's, or zeros.
        let mut block = filled;
        if let Some((file, _)) = store {
            let size = env.store.size(file).map_err(epcm_core::KernelError::from)?;
            if page.as_u64() * BASE_PAGE_SIZE < size {
                let (read, latency) = self.store_io_with_retry(env, false, |store| {
                    store.read_block(file, page.as_u64())
                })?;
                env.kernel.charge(latency);
                block = Some(read);
            }
        }
        let block = block.unwrap_or_else(Block::zeroed);
        env.kernel.manager_write_block(free_seg, slot, block)?;
        env.kernel.charge(env.kernel.costs().page_copy_4k);
        self.op_migrate_pages(env, (free_seg, slot), (seg, page), 1, SHED)?;
        self.policy.note_resident(seg, page);
        self.stats.migrate_calls += 1;
        match store {
            // The swap copy stays registered: it remains valid while the
            // page is clean, so a later clean eviction can drop the frame
            // without I/O and still refill. A dirty eviction overwrites it.
            Some((_, true)) => self.stats.swap_ins += 1,
            Some((_, false)) => self.stats.file_fills += 1,
            None => self.stats.fills += 1,
        }
        // A refill is a re-reference of a previously evicted page; if it
        // landed on a non-DRAM pool frame it is a promotion candidate.
        self.note_heat(env.kernel, seg, page);
        Ok(())
    }

    /// A minimal fault: a free frame handed over as-is. An `append` to a
    /// store-backed file grows the segment in whole allocation units
    /// ("allocates pages in 16K units" for appends, §3.2) and, preferring
    /// a run of consecutive free slots, hands the unit's vacant pages over
    /// in a single `MigratePages`.
    fn minimal_fault(
        &mut self,
        env: &mut Env<'_>,
        free_seg: SegmentId,
        seg: SegmentId,
        page: PageNumber,
        append: bool,
    ) -> Result<(), ManagerError> {
        let mut want = 1;
        if append {
            let batch = self.config.append_batch.max(1);
            if page.as_u64() + batch > env.kernel.segment(seg)?.size_pages() {
                env.kernel.resize_segment(seg, page.as_u64() + batch)?;
            }
            let segment = env.kernel.segment(seg)?;
            let vacant = (0..batch)
                .map(|i| page.offset(i))
                .take_while(|&p| p.as_u64() < segment.size_pages() && segment.entry(p).is_none());
            want = (vacant.count() as u64).max(1);
        }
        let constraint = self.spec.frame_constraint(seg, page);
        let mut run = None;
        if want > 1 {
            self.ensure_free(env, want)?;
            run = find_free_run(env.kernel.segment(free_seg)?, want, &self.laundry);
        }
        let (start, len) = match run {
            Some(run) => run,
            None => (self.take_free_slot(env, constraint)?, 1),
        };
        self.op_migrate_pages(env, (free_seg, start), (seg, page), len, SHED)?;
        self.stats.migrate_calls += 1;
        for i in 0..len {
            self.policy.note_resident(seg, page.offset(i));
        }
        if len > 1 {
            self.stats.append_batches += 1;
            self.trace(
                env.kernel,
                EventKind::BatchSwap {
                    manager: self.id.0,
                    segment: seg.as_u32() as u64,
                    pages: len,
                },
            );
        }
        self.stats.minimal_faults += 1;
        Ok(())
    }

    /// Handles a copy-on-write fault: provide a frame; the kernel copies.
    pub(super) fn handle_cow(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        env.kernel.charge(env.kernel.costs().manager_alloc);
        let constraint = self.spec.frame_constraint(fault.segment, fault.page);
        let slot = self.take_free_slot(env, constraint)?;
        self.op_migrate_pages(
            env,
            (free_seg, slot),
            (fault.segment, fault.page),
            1,
            PageFlags::MANAGER_B,
        )?;
        self.policy.note_resident(fault.segment, fault.page);
        self.stats.cow_faults += 1;
        self.stats.migrate_calls += 1;
        Ok(())
    }
}

/// Free-segment slots holding a frame but no laundry, in slot order.
fn clean_slots<'a>(
    pool: &'a Segment,
    laundry: &'a Laundry,
) -> impl Iterator<Item = PageNumber> + 'a {
    let slots = pool.resident_bits().ones_except(laundry.held_slots().0);
    slots.map(PageNumber)
}

/// Longest run (up to `want`) of consecutive free-segment slots holding
/// frames, avoiding slots that are keeping laundry data alive. Returns
/// `(start, len)` with `len >= 1`, or `None` if only laundry slots remain.
fn find_free_run(pool: &Segment, want: u64, laundry: &Laundry) -> Option<(PageNumber, u64)> {
    let mut best: Option<(u64, u64)> = None; // (start, len)
    let mut run: Option<(u64, u64)> = None; // (start, last)
    for p in clean_slots(pool, laundry) {
        let p = p.as_u64();
        match run {
            Some((start, last)) if p == last + 1 => {
                let len = p - start + 1;
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((start, len));
                }
                if len >= want {
                    return Some((PageNumber(start), want));
                }
                run = Some((start, p));
            }
            _ => {
                run = Some((p, p));
                if best.is_none() {
                    best = Some((p, 1));
                }
            }
        }
    }
    best.map(|(start, len)| (PageNumber(start), len.min(want)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, UserId};

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
        ) -> Result<Fill, ManagerError> {
            let mut block = Block::zeroed();
            block.make_mut().fill(page.as_u64() as u8);
            self.filled += 1;
            Ok(Fill::Filled(block))
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
        assert_eq!(mgr.manager_stats().minimal_faults, 1);
        assert_eq!(mgr.manager_stats().fills, 0);
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
        assert_eq!(mgr.manager_stats().fills, 1);
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
    struct ScratchSpec;

    impl Specialization for ScratchSpec {
        fn evict_disposition(
            &self,
            _seg: SegmentId,
            _page: PageNumber,
            _flags: PageFlags,
        ) -> Disposition {
            Disposition::Discard
        }
    }

    #[test]
    fn discard_disposition_skips_writeback() {
        let (mut m, id) = machine_with(ScratchSpec, 128);
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
        assert!(mgr.manager_stats().discards >= 1);
        assert_eq!(mgr.manager_stats().writebacks, 0);
        assert_eq!(m.store().write_count(), 0);
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
        // Re-touch the evicted pages: rescued from the laundry.
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 8);
    }

    /// A spec that overrides no hook swaps: a plain manager under a frame
    /// quota writes more pages than it can hold and reads every byte
    /// back from the engine's swap.
    #[test]
    fn plain_spec_keeps_data_through_swap() {
        let mut m = Machine::builder(256)
            .allocation(crate::spcm::AllocationPolicy::Quota { per_manager: 48 })
            .build();
        let id = m.register_manager(Box::new(GenericManager::new(
            PlainSpec,
            ManagerMode::FaultingProcess,
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 96).unwrap();
        for p in 0..96u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 8])
                .unwrap();
        }
        for p in (0..96u64).rev() {
            let mut buf = [0u8; 8];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 8], "page {p} lost its data");
        }
        let mgr = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<GenericManager<PlainSpec>>()
            .unwrap();
        let stats = mgr.manager_stats();
        assert!(stats.swap_ins > 0, "{stats:?}");
        assert_eq!(stats.writebacks, mgr.writeback_stats().completed);
    }
}
