//! Stage three of the engine: memory tiers, access heat and promotion.
//! Cold DRAM pages demote a tier down through a kernel frame exchange
//! instead of being written back; pages heated below DRAM by faults,
//! sampling hits and writeback completions earn DRAM back at tick time.

use super::*;

/// Outcome of one demotion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Demotion {
    /// The page now sits on a lower-tier frame.
    Done,
    /// The page is eligible but no lower-tier frame is pooled yet.
    NoTarget,
    /// The page is gone, or not on a DRAM frame.
    Ineligible,
}

/// Access heat per page beside the list of keys whose heat is non-zero,
/// so the tick walks only heated pages. A slot's top bit records that
/// its key is in `live`; zeroing a key's heat leaves it listed until
/// [`Self::prune`].
#[derive(Debug, Default)]
pub(super) struct HeatTable {
    rows: PageRows<u64>,
    live: Vec<(u32, u64)>,
}

const LISTED: u64 = 1 << 63;

impl HeatTable {
    /// The heat of `key`, 0 if none.
    fn get(&self, key: (u32, u64)) -> u64 {
        self.rows.get(key).map_or(0, |heat| heat & !LISTED)
    }

    /// Adds one unit of heat to `key`.
    fn bump(&mut self, key: (u32, u64)) {
        let heat = self.get(key) + 1;
        if self.rows.insert(key, heat | LISTED).is_none() {
            self.live.push(key);
        }
    }

    /// Zeroes `key`'s heat.
    fn clear(&mut self, key: (u32, u64)) {
        if self.get(key) != 0 {
            self.rows.insert(key, LISTED);
        }
    }

    /// Unlists every key whose heat is zero, including the keys of a
    /// segment whose row [`Self::segment_closed`] freed.
    fn prune(&mut self) {
        let rows = &mut self.rows;
        self.live.retain(|&key| match rows.get(key) {
            Some(LISTED) => {
                rows.remove(key);
                false
            }
            heat => heat.is_some(),
        });
    }

    /// Frees closed segment `seg`'s row: no page of it heats again.
    pub(super) fn segment_closed(&mut self, seg: u32) {
        self.rows.free_row(seg);
    }

    /// Whether no key has heat. Exact between ticks, which end with a
    /// prune.
    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

impl<S: Specialization, P: ReplacementPolicy> GenericManager<S, P> {
    /// Accumulates one unit of access heat for `(seg, page)` if the
    /// promotion ladder is on and the page is currently resident on a
    /// non-DRAM frame. Called from the three event streams the ladder
    /// rides: fault-time re-references ([`Self::handle_missing`]),
    /// sampling-window hits ([`Self::handle_protection`]) and writeback
    /// completions ([`Self::drain_writebacks`]).
    pub(super) fn note_heat(&mut self, kernel: &Kernel, seg: SegmentId, page: PageNumber) {
        let tiers = *kernel.tiers();
        if !self.promotion_on() || tiers.is_dram_only() {
            return;
        }
        let entry = kernel.segment(seg).ok().and_then(|s| s.entry(page));
        if entry.is_some_and(|e| tiers.tier_of(e.frame) != MemTier::Dram) {
            self.heat.bump((seg.as_u32(), page.as_u64()));
            self.promo_stats.heat_events += 1;
        }
    }

    /// Picks a free-pool slot as a tier-exchange partner: the lowest
    /// `rank` of its frame's tier (`None`: not a partner), laundry-free
    /// slots before laundered ones (the exchange clobbers the slot's
    /// bytes, so a laundered slot costs its rescue entries), first slot on
    /// ties. A slot whose laundry writeback is still in flight is skipped
    /// outright: it is not clobberable without stalling on the disk.
    /// Returns the slot, its frame, and the frame's tier.
    fn pool_partner(
        &self,
        kernel: &Kernel,
        free_seg: SegmentId,
        rank: impl Fn(MemTier) -> Option<u32>,
    ) -> Option<(PageNumber, FrameId, MemTier)> {
        let tiers = *kernel.tiers();
        let seg = kernel.segment(free_seg).ok()?;
        let mut best: Option<(u32, PageNumber, FrameId, MemTier)> = None;
        // The pool is mostly vacant slots: walk its residency bitmap,
        // skipping slots whose writeback is in flight.
        let (laundered, in_flight) = self.laundry.held_slots();
        for p in seg.resident_bits().ones_except(in_flight).map(PageNumber) {
            let Some(e) = seg.entry(p) else {
                continue;
            };
            let tier = tiers.tier_of(e.frame);
            let Some(rank) = rank(tier) else {
                continue;
            };
            let score = u32::from(laundered.test(p.as_u64())) * 2 + rank;
            if score == 0 {
                return Some((p, e.frame, tier));
            }
            if best.is_none_or(|(s, ..)| score < s) {
                best = Some((score, p, e.frame, tier));
            }
        }
        best.map(|(_, p, f, t)| (p, f, t))
    }

    /// Accounts the RLE work a real zram device would do for a page
    /// landing in a CompressedRam frame (the refitted `compress.rs`
    /// scheme backs that tier).
    fn note_zram(&mut self, data: &[u8]) {
        self.zram_stats.compressed += 1;
        self.zram_stats.raw_bytes += BASE_PAGE_SIZE;
        self.zram_stats.stored_bytes += rle_compress(data).len() as u64;
    }

    /// Attempts to demote `page` — resident on a DRAM frame — into a
    /// spare lower-tier free-pool frame via a kernel tier exchange. The
    /// page stays resident (only its physical frame changes), so no
    /// writeback I/O happens and the manager's DRAM bill shrinks.
    pub(super) fn try_demote(
        &mut self,
        env: &mut Env<'_>,
        free_seg: SegmentId,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Demotion, ManagerError> {
        let tiers = *env.kernel.tiers();
        if tiers.is_dram_only() {
            return Ok(Demotion::Ineligible);
        }
        let Some(entry) = env.kernel.segment(seg)?.entry(page) else {
            return Ok(Demotion::Ineligible);
        };
        if tiers.tier_of(entry.frame) != MemTier::Dram {
            return Ok(Demotion::Ineligible);
        }
        // Demotion walks the ladder one rung at a time: SlowMem first.
        let rank = |t| match t {
            MemTier::Dram => None,
            MemTier::SlowMem => Some(0),
            _ => Some(1),
        };
        let Some((slot, dst, dst_tier)) = self.pool_partner(env.kernel, free_seg, rank) else {
            return Ok(Demotion::NoTarget);
        };
        // The exchange overwrites the slot's bytes: any laundry it holds
        // must be dropped first (the same invariant take_free_slot uses —
        // laundered data was already written back at reclaim time), and
        // an in-flight writeback must complete before the clobber.
        self.drop_laundry(env, &[slot]);
        if dst_tier == MemTier::CompressedRam {
            let block = env.kernel.manager_read_block(seg, page)?;
            self.note_zram(block.as_slice());
        }
        self.ring
            .call(env.kernel, RingOp::MigrateFrame { seg, page, dst })?;
        self.stats.demotions += 1;
        Ok(Demotion::Done)
    }

    /// Demotes up to `budget` cold (unreferenced, unpinned) DRAM pages
    /// into spare lower-tier pool frames. This is the bankrupt manager's
    /// survival path: holdings shift to cheaper tiers, the tiered bill
    /// shrinks, and no data is lost to a forced seizure.
    pub(super) fn rebalance_demote(
        &mut self,
        env: &mut Env<'_>,
        budget: u64,
    ) -> Result<u64, ManagerError> {
        if budget == 0 || env.kernel.tiers().is_dram_only() {
            return Ok(0);
        }
        let free_seg = self.free_seg(env)?;
        let tiers = *env.kernel.tiers();
        let segs: Vec<SegmentId> = self.managed.values().map(|m| m.id).collect();
        let mut demoted = 0;
        'segments: for seg in segs {
            let candidates: Vec<PageNumber> = match env.kernel.segment(seg) {
                Ok(segment) => segment
                    .resident()
                    .filter(|(_, e)| {
                        !e.flags.contains(PageFlags::PINNED)
                            && !e.flags.contains(PageFlags::REFERENCED)
                            && tiers.tier_of(e.frame) == MemTier::Dram
                    })
                    .map(|(p, _)| p)
                    .collect(),
                Err(_) => continue,
            };
            for page in candidates {
                if demoted >= budget {
                    break 'segments;
                }
                if self.try_demote(env, free_seg, seg, page)? == Demotion::Done {
                    demoted += 1;
                }
            }
        }
        Ok(demoted)
    }

    /// The coldest DRAM victim for a promotion swap: the first resident,
    /// unpinned, clock-unreferenced page on a DRAM frame, scanning
    /// managed segments in id order (deterministic). Pages the clock has
    /// seen referenced keep their frames — promotion never steals hot
    /// DRAM — but, exactly like the reclaim probe, they get a second
    /// chance: when every DRAM page carries its reference bit, the scan
    /// strips the bits and returns nothing, so a page that stays cold
    /// is pickable on the next pass while anything re-referenced in
    /// between survives.
    ///
    /// Within one promotion pass the scan resumes where the last one
    /// stopped. Between two searches the pass changes no page's flags
    /// (`MigrateFrame` keeps both slots' flags) and moves frames only
    /// for the victim, which leaves DRAM, and the promoted page, which
    /// reaches it. So below the resume point only promoted pages can
    /// have become victims, and they are checked first, lowest key
    /// first: the pick is the one a scan from page 0 makes.
    fn find_promotion_victim(
        &mut self,
        kernel: &mut Kernel,
    ) -> Option<(SegmentId, PageNumber, FrameId)> {
        let pick = self.resumed_victim(kernel);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            pick,
            self.first_cold_victim(kernel),
            "the resumed victim search diverged from a scan from page 0"
        );
        if pick.is_some() {
            return pick;
        }
        // Every candidate was referenced: give them all a second chance,
        // in the order the sweep met them. Every page may now be a
        // victim, so the next search starts over.
        let tiers = *kernel.tiers();
        for seg in self.managed.values().map(|m| m.id) {
            let mut from = PageNumber(0);
            while let Some(p) = kernel.segment(seg).ok().and_then(|segment| {
                segment
                    .resident_from(from)
                    .find(|(_, e)| promotion_candidate(e, &tiers))
                    .map(|(p, _)| p)
            }) {
                let _ = self.ring.call(kernel, clear_referenced(seg, p));
                from = p.offset(1);
            }
        }
        self.begin_promotion_pass();
        None
    }

    /// The first cold DRAM page among the pages promoted behind the
    /// resume point, else at or after the point, which then moves to it.
    fn resumed_victim(&mut self, kernel: &Kernel) -> Option<(SegmentId, PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        for (i, &(sid, page)) in self.promo_behind.iter().enumerate() {
            let Some(seg) = self.managed.get(&sid).map(|m| m.id) else {
                continue;
            };
            let page = PageNumber(page);
            let entry = kernel.segment(seg).ok().and_then(|s| s.entry(page));
            if let Some(e) = entry.filter(|e| promotion_victim(e, &tiers)) {
                // Leaving DRAM, it cannot be picked again this pass.
                self.promo_behind.remove(i);
                return Some((seg, page, e.frame));
            }
        }
        let (start_seg, start_page) = self.promo_resume;
        for (&sid, ms) in self.managed.range(start_seg..) {
            let from = if sid == start_seg { start_page } else { 0 };
            let Ok(segment) = kernel.segment(ms.id) else {
                continue;
            };
            if let Some((p, e)) = segment
                .resident_from(PageNumber(from))
                .find(|(_, e)| promotion_victim(e, &tiers))
            {
                self.promo_resume = (sid, p.as_u64());
                return Some((ms.id, p, e.frame));
            }
        }
        None
    }

    /// The victim rule as a scan from page 0 of every managed segment:
    /// the oracle [`Self::find_promotion_victim`]'s resumed pick is
    /// checked against in debug builds.
    #[cfg(debug_assertions)]
    fn first_cold_victim(&self, kernel: &Kernel) -> Option<(SegmentId, PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        self.managed.values().find_map(|m| {
            let segment = kernel.segment(m.id).ok()?;
            let (p, e) = segment
                .resident()
                .find(|(_, e)| promotion_victim(e, &tiers))?;
            Some((m.id, p, e.frame))
        })
    }

    /// Starts a promotion pass: the next victim search scans from the
    /// first managed page.
    fn begin_promotion_pass(&mut self) {
        self.promo_resume = (0, 0);
        self.promo_behind.clear();
    }

    /// Notes that this pass moved `key` onto DRAM. A key behind the
    /// resume point is one the resumed search must still see.
    fn promoted_to_dram(&mut self, key: (u32, u64)) {
        if key < self.promo_resume {
            if let Err(at) = self.promo_behind.binary_search(&key) {
                self.promo_behind.insert(at, key);
            }
        }
    }

    /// Promotes one hot page onto a DRAM frame via tier exchange.
    ///
    /// Preference order matches the ISSUE contract: a spare free-pool
    /// DRAM frame first (the free slot inherits the hot page's old
    /// lower-tier frame), else an exchange with the coldest DRAM victim.
    /// Either way frame conservation is an exchange invariant — no
    /// allocation ever happens.
    ///
    /// The swap path needs one extra copy: `MigrateFrame`'s one-way copy
    /// moves the hot page's bytes up, leaving the victim's landing frame
    /// with stale bytes, so the victim's page is saved before the
    /// exchange and restored (one charged page copy) after it.
    fn promote_page(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        heat: u64,
    ) -> Result<bool, ManagerError> {
        let tiers = *env.kernel.tiers();
        let Some(entry) = env.kernel.segment(seg)?.entry(page) else {
            return Ok(false);
        };
        let hot_frame = entry.frame;
        let from = tiers.tier_of(hot_frame);
        if from == MemTier::Dram || entry.flags.contains(PageFlags::PINNED) {
            return Ok(false);
        }
        let free_seg = self.free_seg(env)?;
        let dram = |t| (t == MemTier::Dram).then_some(0);
        let swapped = match self.pool_partner(env.kernel, free_seg, dram) {
            Some((slot, dst, _)) => {
                // The exchange clobbers the slot's bytes (the hot page's
                // old frame moves in residually): laundry there drops
                // first, exactly as on the demotion path.
                self.drop_laundry(env, &[slot]);
                self.ring
                    .call(env.kernel, RingOp::MigrateFrame { seg, page, dst })?;
                self.promoted_to_dram((seg.as_u32(), page.as_u64()));
                false
            }
            None => {
                let Some((vseg, vpage, vframe)) = self.find_promotion_victim(env.kernel) else {
                    self.promo_stats.no_target += 1;
                    return Ok(false);
                };
                let saved = env.kernel.manager_read_block(vseg, vpage)?;
                if from == MemTier::CompressedRam {
                    // The victim lands in the zram tier.
                    self.note_zram(saved.as_slice());
                }
                let op = RingOp::MigrateFrame {
                    seg,
                    page,
                    dst: vframe,
                };
                self.ring.call(env.kernel, op)?;
                self.promoted_to_dram((seg.as_u32(), page.as_u64()));
                env.kernel.manager_write_block(vseg, vpage, saved)?;
                env.kernel.charge(env.kernel.costs().page_copy_4k);
                true
            }
        };
        self.stats.promotions += 1;
        if swapped {
            self.promo_stats.swapped += 1;
        } else {
            self.promo_stats.to_free += 1;
        }
        // The promotion copy is billed like a 4 KB transfer on the
        // market ledger, so a manager cannot thrash pages up the ladder
        // for free — the same anti-dodge role as the re-read I/O charge.
        env.spcm.charge_manager_io(self.id, 1);
        self.trace(
            env.kernel,
            EventKind::PagePromoted {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
                from_tier: from.code(),
                heat,
                swapped,
            },
        );
        Ok(true)
    }

    /// One tick's promotion pass: prune stale heat, rank the live
    /// candidates (heat descending, page ascending — a total order, so
    /// the pass is a pure function of the run), and promote the top
    /// `promotion_budget`.
    pub(super) fn promote_hot(&mut self, env: &mut Env<'_>) -> Result<u64, ManagerError> {
        if !self.promotion_on() || env.kernel.tiers().is_dram_only() || self.heat.is_empty() {
            return Ok(0);
        }
        // A bankrupt manager is shedding DRAM, not acquiring it: the
        // rebalance ladder runs instead (tick order: demote, then skip
        // promotion until solvent again).
        if self.in_the_red(env) {
            return Ok(0);
        }
        let tiers = *env.kernel.tiers();
        let threshold = self.config.promotion_threshold.max(1);
        let mut stale: Vec<(u32, u64)> = Vec::new();
        let mut cands: Vec<(u64, (u32, u64))> = Vec::new();
        for &key in &self.heat.live {
            let heat = self.heat.get(key);
            if heat == 0 {
                continue; // cleared, awaiting the prune
            }
            let Some(seg) = self.managed.get(&key.0).map(|m| m.id) else {
                stale.push(key); // segment closed or unmanaged
                continue;
            };
            let Some(entry) = env.kernel.segment(seg)?.entry(PageNumber(key.1)) else {
                stale.push(key); // no longer resident
                continue;
            };
            if tiers.tier_of(entry.frame) == MemTier::Dram {
                stale.push(key); // reached DRAM on its own
                continue;
            }
            if entry.flags.contains(PageFlags::PINNED) {
                continue; // quarantined in place; keep the heat
            }
            if heat >= threshold {
                cands.push((heat, key));
            }
        }
        for key in stale {
            self.heat.clear(key);
        }
        top_k(&mut cands, self.config.promotion_budget as usize);
        self.begin_promotion_pass();
        let mut promoted = 0;
        for (heat, key) in cands {
            let Some(seg) = self.managed.get(&key.0).map(|m| m.id) else {
                continue;
            };
            if self.promote_page(env, seg, PageNumber(key.1), heat)? {
                self.heat.clear(key);
                promoted += 1;
            }
        }
        self.heat.prune();
        Ok(promoted)
    }
}

/// Whether a page could give up its frame to a promotion: unpinned and
/// on DRAM.
fn promotion_candidate(e: &PageEntry, tiers: &TierLayout) -> bool {
    !e.flags.contains(PageFlags::PINNED) && tiers.tier_of(e.frame) == MemTier::Dram
}

/// Whether a page gives up its frame to the next promotion: a candidate
/// the clock has not seen referenced.
fn promotion_victim(e: &PageEntry, tiers: &TierLayout) -> bool {
    promotion_candidate(e, tiers) && !e.flags.contains(PageFlags::REFERENCED)
}

/// Sorts the `k` largest candidates to the front of `cands` — heat
/// descending, then `(segment, page)` ascending, a total order — and
/// drops the rest. Selection first, so only the kept `k` are sorted.
fn top_k(cands: &mut Vec<(u64, (u32, u64))>, k: usize) {
    let order = |a: &(u64, (u32, u64)), b: &(u64, (u32, u64))| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
    if k < cands.len() {
        if k > 0 {
            cands.select_nth_unstable_by(k - 1, order);
        }
        cands.truncate(k);
    }
    cands.sort_unstable_by(order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_manager::DefaultSegmentManager;
    use crate::machine::Machine;
    use epcm_core::types::AccessKind;

    /// A 16/64/0 tiered machine whose default manager holds a 48-page
    /// segment with the 16 pages it touched first on DRAM and the rest
    /// on SlowMem: the pages are touched from the last one down when
    /// `top_on_dram`, else from page 0 up. Every reference bit is clear
    /// and the free pool holds only SlowMem frames, so a promotion must
    /// swap with a DRAM victim.
    fn promotion_machine(top_on_dram: bool) -> (Machine, ManagerId, SegmentId) {
        let layout = TierLayout::new(16, 64, 0);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                promotion_budget: 4,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 48).unwrap();
        let order: Vec<u64> = if top_on_dram {
            (0..48).rev().collect()
        } else {
            (0..48).collect()
        };
        for &p in &order {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let k = m.kernel_mut();
        let none = PageFlags::empty();
        k.modify_page_flags(seg, PageNumber(0), 48, none, PageFlags::REFERENCED)
            .unwrap();
        for (p, e) in k.segment(seg).unwrap().resident() {
            let dram = layout.tier_of(e.frame) == MemTier::Dram;
            assert_eq!(dram, order[..16].contains(&p.as_u64()), "page {p}");
        }
        (m, id, seg)
    }

    fn on_dram(m: &Machine, seg: SegmentId, page: u64) -> bool {
        let e = m.kernel().segment(seg).unwrap().entry(PageNumber(page));
        m.kernel().tiers().tier_of(e.unwrap().frame) == MemTier::Dram
    }

    /// Runs one promotion pass by hand: promotes `pages` in order, as
    /// `promote_hot` does with its ranked candidates.
    fn promotion_pass(m: &mut Machine, id: ManagerId, seg: SegmentId, pages: &[u64]) -> Vec<bool> {
        m.with_manager(id, |mgr, env| {
            let d = mgr
                .as_any_mut()
                .downcast_mut::<DefaultSegmentManager>()
                .unwrap();
            d.begin_promotion_pass();
            let promoted = pages
                .iter()
                .map(|&p| d.promote_page(env, seg, PageNumber(p), 9));
            promoted.collect::<Result<Vec<bool>, _>>()
        })
        .unwrap()
    }

    #[test]
    fn page_promoted_behind_the_resume_point_is_the_next_victim() {
        let (mut m, id, seg) = promotion_machine(true);
        // Every DRAM page but the last is referenced: the first search
        // walks to page 47 and leaves the resume point there.
        m.kernel_mut()
            .modify_page_flags(
                seg,
                PageNumber(32),
                15,
                PageFlags::REFERENCED,
                PageFlags::empty(),
            )
            .unwrap();
        // Page 0 takes page 47's frame, lands behind the resume point
        // with its reference bit clear, and so is the next victim: page
        // 1 takes its frame in turn.
        assert_eq!(promotion_pass(&mut m, id, seg, &[0, 1]), [true, true]);
        assert!(!on_dram(&m, seg, 47));
        assert!(!on_dram(&m, seg, 0));
        assert!(on_dram(&m, seg, 1));
        assert!((32..47).all(|p| on_dram(&m, seg, p)));
    }

    #[test]
    fn second_chance_sweep_restarts_the_victim_search_at_page_0() {
        let (mut m, id, seg) = promotion_machine(false);
        // Pages 0..16 are on DRAM; all but page 15 are referenced, and
        // so are the SlowMem pages about to be promoted.
        let k = m.kernel_mut();
        let none = PageFlags::empty();
        k.modify_page_flags(seg, PageNumber(0), 15, PageFlags::REFERENCED, none)
            .unwrap();
        k.modify_page_flags(seg, PageNumber(40), 3, PageFlags::REFERENCED, none)
            .unwrap();
        // Page 40 swaps with page 15, leaving the resume point at page 15,
        // and stays referenced on DRAM. Page 41 then finds every DRAM
        // page referenced: the sweep strips the bits and page 41 stays
        // put. Page 42's search starts over at page 0, now cold, where a
        // search resumed at page 15 would pick page 40.
        let promoted = promotion_pass(&mut m, id, seg, &[40, 41, 42]);
        assert_eq!(promoted, [true, false, true]);
        assert!(!on_dram(&m, seg, 0));
        assert!(on_dram(&m, seg, 40));
        assert!(!on_dram(&m, seg, 41));
        assert!(on_dram(&m, seg, 42));
        let mgr = m.manager(id).unwrap().as_any();
        let stats = mgr
            .downcast_ref::<DefaultSegmentManager>()
            .unwrap()
            .promotion_stats();
        assert_eq!((stats.swapped, stats.no_target), (2, 1));
    }

    #[test]
    fn top_k_matches_full_sort_and_truncate() {
        let mut rng = epcm_sim::rng::Rng::seed_from(16);
        for round in 0..400 {
            // Few distinct heats and keys, so ties on heat are common.
            let n = rng.index(40);
            let mut cands: Vec<(u64, (u32, u64))> = Vec::new();
            while cands.len() < n {
                let key = (rng.index(4) as u32, rng.index(16) as u64);
                if cands.iter().all(|c| c.1 != key) {
                    cands.push((rng.index(5) as u64, key));
                }
            }
            let k = rng.index(20);
            let mut want = cands.clone();
            want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            want.truncate(k);
            top_k(&mut cands, k);
            assert_eq!(cands, want, "round {round}, k {k}");
        }
    }
}
