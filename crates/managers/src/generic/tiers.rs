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

/// Access heat per page, and the keys the tick's promotion scan reads
/// instead of every heated page. A row entry's top bits flag a key as
///
/// * `HOT`: its heat reached the promotion threshold. A key is flagged
///   when [`Self::bump`] carries it across, and unflagged at a scan that
///   finds it stale or below the threshold;
/// * `MOVED`: the engine evicted its page since the last scan (after a
///   forced seizure, which moves pages without the engine, every heated
///   key is flagged). The scan checks it and unflags it.
///
/// `listed` holds each flagged key once. Heat only rises between scans,
/// and a page turns stale (unmanaged, not resident, or on DRAM) only by
/// eviction, forced seizure, segment close, which frees the row, or
/// promotion, whose caller clears the key. So a heated key that is
/// neither hot nor moved is neither a candidate nor stale. An entry is
/// vacant once its heat and both flags are zero.
#[derive(Debug, Default)]
pub(super) struct HeatTable {
    rows: PageRows<u64>,
    listed: Vec<(u32, u64)>,
    /// The SPCM's count of frames seized by force, quarantined ones
    /// included, at the last scan.
    seized: u64,
}

/// A promotion candidate: its heat and its key.
type Candidate = (u64, (u32, u64));

const HOT: u64 = 1 << 63;
const MOVED: u64 = 1 << 62;
const HEAT: u64 = MOVED - 1;

/// What the promotion scan finds of a heated page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum HeatState {
    /// Unmanaged, not resident, or on DRAM: its heat is cleared.
    Stale,
    /// Pinned in place: it keeps its heat but is not promoted.
    Pinned,
    /// Resident below DRAM and unpinned.
    Live,
}

impl HeatTable {
    /// The heat of `key`, 0 if none.
    #[cfg(any(test, debug_assertions))]
    fn get(&self, key: (u32, u64)) -> u64 {
        self.rows.get(key).map_or(0, |entry| entry & HEAT)
    }

    /// Sets `flag` on `key`'s `entry`, listing the key if it had no flag.
    fn flag(&mut self, key: (u32, u64), entry: u64, flag: u64) {
        if entry & (HOT | MOVED) == 0 {
            self.listed.push(key);
        }
        self.rows.insert(key, entry | flag);
    }

    /// Zeroes the `bits` of `key`'s entry (its heat, its flags),
    /// vacating the slot when nothing is left.
    fn unset(&mut self, key: (u32, u64), bits: u64) {
        match self.rows.get(key).map(|entry| entry & !bits) {
            Some(0) => {
                self.rows.remove(key);
            }
            Some(entry) => {
                self.rows.insert(key, entry);
            }
            None => {}
        }
    }

    /// Adds one unit of heat to `key`, flagging it hot once its heat
    /// reaches `threshold`.
    fn bump(&mut self, key: (u32, u64), threshold: u64) {
        let entry = self.rows.get(key).unwrap_or(0) + 1;
        if entry & HEAT >= threshold && entry & HOT == 0 {
            self.flag(key, entry, HOT);
        } else {
            self.rows.insert(key, entry);
        }
    }

    /// Zeroes `key`'s heat; the next scan unlists it.
    fn clear(&mut self, key: (u32, u64)) {
        self.unset(key, HEAT);
    }

    /// Notes that `key`'s page left its frame: if heated, the next scan
    /// checks it for staleness.
    pub(super) fn moved(&mut self, key: (u32, u64)) {
        match self.rows.get(key) {
            Some(entry) if entry & HEAT != 0 && entry & MOVED == 0 => {
                self.flag(key, entry, MOVED);
            }
            _ => {}
        }
    }

    /// Frees closed segment `seg`'s row: no page of it heats again, and
    /// its listed keys read vacant until a scan unlists them.
    pub(super) fn segment_closed(&mut self, seg: u32) {
        self.rows.free_row(seg);
    }

    /// Every key with heat, and its heat.
    fn heated(&self) -> impl Iterator<Item = ((u32, u64), u64)> + '_ {
        let heats = self.rows.entries().map(|(key, entry)| (key, entry & HEAT));
        heats.filter(|&(_, heat)| heat != 0)
    }

    /// One promotion scan. `seized` is the SPCM's count of frames seized
    /// by force: when it changed since the last scan, every heated key
    /// counts as moved. Reads each listed key once: clears the heat of a
    /// stale one, unlists it unless it stays hot, and returns the
    /// candidates — hot keys at or above `threshold` that `state` finds
    /// live, with their heat. Adds the number of keys read to `read`.
    ///
    /// The result is that of reading every heated key; debug builds
    /// check it against that full walk.
    pub(super) fn scan<E>(
        &mut self,
        threshold: u64,
        seized: u64,
        read: &mut u64,
        mut state: impl FnMut((u32, u64)) -> Result<HeatState, E>,
    ) -> Result<Vec<Candidate>, E> {
        #[cfg(debug_assertions)]
        let before: Vec<((u32, u64), u64)> = self.heated().collect();
        if seized != self.seized {
            self.seized = seized;
            let keys: Vec<(u32, u64)> = self.heated().map(|(key, _)| key).collect();
            for key in keys {
                self.moved(key);
            }
        }
        *read += self.listed.len() as u64;
        let mut cands = Vec::new();
        let mut i = 0;
        // A key is unlisted only once read, so an error leaves it listed.
        while let Some(&key) = self.listed.get(i) {
            let entry = self.rows.get(key).unwrap_or(0);
            let heat = entry & HEAT;
            let hot = entry & HOT != 0 && heat >= threshold;
            // A moved key is checked at any heat, a hot one while it is
            // at the threshold; a hot key stays listed unless it is stale.
            let keep = if hot || (heat != 0 && entry & MOVED != 0) {
                match state(key)? {
                    HeatState::Stale => {
                        self.clear(key);
                        false
                    }
                    HeatState::Live if hot => {
                        cands.push((heat, key));
                        true
                    }
                    _ => hot,
                }
            } else {
                false
            };
            if keep {
                if entry & MOVED != 0 {
                    self.unset(key, MOVED);
                }
                i += 1;
            } else {
                self.unset(key, HOT | MOVED);
                self.listed.swap_remove(i);
            }
        }
        #[cfg(debug_assertions)]
        self.check_scan(threshold, before, &cands, &mut state)?;
        Ok(cands)
    }

    /// The oracle for [`Self::scan`]: walks the heat `before` the scan as
    /// the full scan did and checks the candidates, which keys were
    /// cleared, and that every hot key is still flagged and listed.
    #[cfg(debug_assertions)]
    fn check_scan<E>(
        &self,
        threshold: u64,
        before: Vec<((u32, u64), u64)>,
        cands: &[Candidate],
        state: &mut impl FnMut((u32, u64)) -> Result<HeatState, E>,
    ) -> Result<(), E> {
        let mut want = Vec::new();
        let mut kept = 0;
        for (key, heat) in before {
            let now = state(key)?;
            let after = if now == HeatState::Stale { 0 } else { heat };
            debug_assert_eq!(
                self.get(key),
                after,
                "scan left key {key:?} at the wrong heat"
            );
            kept += usize::from(after != 0);
            if now == HeatState::Live && heat >= threshold {
                want.push((heat, key));
            }
        }
        debug_assert_eq!(self.heated().count(), kept, "the scan heated a key");
        let mut got = cands.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        debug_assert_eq!(
            got, want,
            "the listed scan's candidates diverged from a full walk"
        );
        let mut hot = 0;
        for (key, entry) in self.rows.entries() {
            hot += usize::from(entry & HOT != 0);
            let unlisted = entry & HEAT >= threshold && entry & HOT == 0;
            debug_assert!(!unlisted && entry & MOVED == 0, "key {key:?} is misflagged");
        }
        debug_assert_eq!(hot, self.listed.len(), "a listed key is not flagged hot");
        Ok(())
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
            let threshold = self.config.promotion_threshold.max(1);
            self.heat.bump((seg.as_u32(), page.as_u64()), threshold);
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
        self.zram_stats.stored_bytes += rle_len(data) as u64;
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

    /// One tick's promotion pass: clear stale heat, rank the live
    /// candidates (heat descending, page ascending — a total order, so
    /// the pass is a pure function of the run), and promote the top
    /// `promotion_budget`.
    pub(super) fn promote_hot(&mut self, env: &mut Env<'_>) -> Result<u64, ManagerError> {
        if !self.promotion_on() || env.kernel.tiers().is_dram_only() {
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
        let (_, seized, _, _) = env.spcm.revocation_stats();
        let (managed, kernel) = (&self.managed, &*env.kernel);
        let state = |key: (u32, u64)| -> Result<HeatState, ManagerError> {
            let Some(seg) = managed.get(&key.0).map(|m| m.id) else {
                return Ok(HeatState::Stale); // segment closed or unmanaged
            };
            let Some(entry) = kernel.segment(seg)?.entry(PageNumber(key.1)) else {
                return Ok(HeatState::Stale); // no longer resident
            };
            Ok(if tiers.tier_of(entry.frame) == MemTier::Dram {
                HeatState::Stale // reached DRAM on its own
            } else if entry.flags.contains(PageFlags::PINNED) {
                HeatState::Pinned // quarantined in place; keep the heat
            } else {
                HeatState::Live
            })
        };
        let read = &mut self.promo_stats.heat_keys_read;
        let mut cands = self.heat.scan(threshold, seized, read, state)?;
        if cands.is_empty() {
            return Ok(0);
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
fn top_k(cands: &mut Vec<Candidate>, k: usize) {
    let order = |a: &Candidate, b: &Candidate| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
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
    use crate::chaotic::ChaoticManager;
    use crate::default_manager::DefaultSegmentManager;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, UserId};
    use epcm_sim::chaos::ChaosEvent;
    use epcm_sim::rng::{Rng, Zipf};
    use proptest::prelude::*;
    use std::convert::Infallible;

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
            let mut cands: Vec<Candidate> = Vec::new();
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

    /// A sampling hit on `page`: its access rights revoked, then a touch.
    fn sampling_hit(m: &mut Machine, seg: SegmentId, page: u64) {
        let revoke = PageFlags::READ | PageFlags::WRITE;
        m.kernel_mut()
            .modify_page_flags(seg, PageNumber(page), 1, PageFlags::MANAGER_B, revoke)
            .unwrap();
        m.touch(seg, page, AccessKind::Read).unwrap();
    }

    #[test]
    fn forced_seizure_clears_heat_below_the_threshold() {
        // A plain default manager's segment holds all of DRAM, so every
        // frame the promoting manager is granted is on SlowMem.
        let layout = TierLayout::new(16, 128, 0);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let plain = m.register_manager(Box::new(DefaultSegmentManager::server()));
        m.set_default_manager(plain);
        let hog = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..16 {
            m.touch(hog, p, AccessKind::Write).unwrap();
        }
        let config = DefaultManagerConfig {
            promotion_budget: 4,
            ..DefaultManagerConfig::default()
        };
        let inner = DefaultSegmentManager::with_config(ManagerMode::Server, config);
        let id = m.register_manager(Box::new(ChaoticManager::around(inner)));
        let seg = m
            .create_segment_with(SegmentKind::Anonymous, 8, id, UserId::SYSTEM)
            .unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        let heat = |m: &Machine| {
            let mgr = m.manager(id).unwrap().as_any();
            let chaotic = mgr.downcast_ref::<ChaoticManager>().unwrap();
            chaotic.inner().heat.get((seg.as_u32(), 0))
        };
        sampling_hit(&mut m, seg, 0);
        assert_eq!(heat(&m), 1, "one hit, below the threshold of 2");
        // The manager's reclaim lies, so a demand for every frame stands,
        // expires, and is seized by force at the next tick, page 0 with
        // it; the manager's own tick then scans.
        m.with_manager(id, |mgr, _| {
            let chaotic = mgr.as_any_mut().downcast_mut::<ChaoticManager>();
            chaotic.unwrap().inject(ChaosEvent::Byzantine);
            Ok(())
        })
        .unwrap();
        m.revoke(id, m.spcm().granted_to(id)).unwrap();
        let grace = m.spcm().revocation_config().grace;
        m.kernel_mut().charge(grace + Micros::new(1));
        m.tick().unwrap();
        assert!(m.spcm().revocation_stats().1 > 0, "nothing was seized");
        assert!(m
            .kernel()
            .segment(seg)
            .unwrap()
            .entry(PageNumber(0))
            .is_none());
        // A refault (a minimal fault, which heats nothing) and one hit.
        m.touch(seg, 0, AccessKind::Read).unwrap();
        assert!(!on_dram(&m, seg, 0));
        sampling_hit(&mut m, seg, 0);
        assert_eq!(heat(&m), 1, "the seized page kept its old heat");
    }

    #[test]
    fn promotion_scan_reads_only_hot_and_moved_keys() {
        // The benchmark's tiered machine and manager tuning, Zipf(0.9)
        // loads over a file a third larger than memory, one tick per
        // 1024 loads.
        let layout = TierLayout::new(512, 2048, 512);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                sample_batch: 128,
                promotion_budget: 16,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(id);
        let pages = layout.total() * 4 / 3;
        m.store_mut().create("f", (pages * BASE_PAGE_SIZE) as usize);
        let seg = m.open_file("f").unwrap();
        for p in 0..pages {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        let zipf = Zipf::new(pages, 0.9);
        let mut rng = Rng::seed_from(42);
        let (mut read, mut heated) = (0, 0);
        for _ in 0..200 {
            for _ in 0..1024 {
                m.touch(seg, zipf.sample(&mut rng), AccessKind::Read)
                    .unwrap();
            }
            // The manager's tick by hand, to see the lists as the
            // promotion scan starts (no market, so no rebalance stage).
            let (listed, all, keys_read) = m
                .with_manager(id, |mgr, env| {
                    let d = mgr
                        .as_any_mut()
                        .downcast_mut::<DefaultSegmentManager>()
                        .unwrap();
                    d.drain_writebacks(env);
                    if d.free_count(env.kernel) < d.config.low_water {
                        let _ = d.ensure_free(env, d.config.target_free);
                    }
                    let listed = d.heat.listed.len() as u64;
                    let all = d.heat.heated().count() as u64;
                    let before = d.promo_stats.heat_keys_read;
                    d.promote_hot(env)?;
                    d.sampling_sweep(env)?;
                    Ok((listed, all, d.promo_stats.heat_keys_read - before))
                })
                .unwrap();
            assert_eq!(keys_read, listed);
            read += keys_read;
            heated += all;
        }
        let stats = m.manager(id).unwrap().as_any();
        let stats = stats.downcast_ref::<DefaultSegmentManager>().unwrap();
        assert!(stats.promotion_stats().to_free + stats.promotion_stats().swapped > 0);
        assert!(read * 4 < heated, "read {read} of {heated} heated keys");
    }

    /// Where the reference world of `heat_table_matches_full_scan_reference`
    /// keeps a page: `None` when not resident, else on DRAM or not.
    #[derive(Debug, Clone, Copy, Default)]
    struct Page {
        resident: Option<bool>,
        pinned: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The listed heat table clears the same keys and offers the same
        /// candidates as the full scan over a `BTreeMap` of heat, on
        /// random streams of heat bumps, clears, evictions, refaults,
        /// demotions, pins, segment closes, forced seizures and scans
        /// that promote some candidates.
        #[test]
        fn heat_table_matches_full_scan_reference(
            ops in proptest::collection::vec((0u8..12, 0u32..3, 0u64..8, 0u64..8), 1..400),
            threshold in 1u64..4,
        ) {
            let mut dense = HeatTable::default();
            let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            let mut world = [[Page::default(); 8]; 3];
            let mut closed = [false; 3];
            let mut seized = 0;
            for (kind, seg, page, bits) in ops {
                let key = (seg, page);
                let (s, p) = (seg as usize, page as usize);
                let resident = world[s][p].resident;
                match kind {
                    _ if closed[s] => {}
                    // Heat comes only to a page resident below DRAM.
                    0..=2 if resident == Some(false) => {
                        dense.bump(key, threshold);
                        *model.entry(key).or_insert(0) += 1;
                    }
                    3 if resident.is_some() => {
                        world[s][p] = Page::default();
                        dense.moved(key);
                    }
                    4 if resident.is_none() => world[s][p].resident = Some(bits % 2 == 0),
                    5 if resident.is_some() => world[s][p].pinned ^= true,
                    // A demotion: a DRAM page takes a lower-tier frame.
                    6 if resident == Some(true) => world[s][p].resident = Some(false),
                    // A forced seizure: the page goes, the table is not told.
                    7 if resident.is_some() => {
                        world[s][p] = Page::default();
                        seized += 1;
                    }
                    8 if bits == 0 => {
                        closed[s] = true;
                        world[s] = [Page::default(); 8];
                        dense.segment_closed(seg);
                        model.retain(|k, _| k.0 != seg);
                    }
                    9 => {
                        dense.clear(key);
                        model.remove(&key);
                    }
                    10 | 11 => {
                        let state = |(seg, page): (u32, u64)| {
                            let at = world[seg as usize][page as usize];
                            Ok::<_, Infallible>(match at.resident {
                                _ if closed[seg as usize] => HeatState::Stale,
                                None | Some(true) => HeatState::Stale,
                                Some(false) if at.pinned => HeatState::Pinned,
                                Some(false) => HeatState::Live,
                            })
                        };
                        let listed = dense.listed.len() as u64;
                        let fallback = seized != dense.seized;
                        let mut read = 0;
                        let mut got = dense.scan(threshold, seized, &mut read, state).unwrap();
                        // The reference: every heated key, as the full scan read them.
                        let mut want = Vec::new();
                        model.retain(|&key, &mut heat| match state(key).unwrap() {
                            HeatState::Stale => false,
                            HeatState::Pinned => true,
                            HeatState::Live => {
                                if heat >= threshold {
                                    want.push((heat, key));
                                }
                                true
                            }
                        });
                        got.sort_unstable();
                        want.sort_unstable();
                        prop_assert_eq!(&got, &want);
                        if !fallback {
                            prop_assert_eq!(read, listed);
                        }
                        // Promote the first `bits` candidates onto DRAM.
                        for &(_, key) in got.iter().take(bits as usize) {
                            world[key.0 as usize][key.1 as usize].resident = Some(true);
                            dense.clear(key);
                            model.remove(&key);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(dense.get(key), model.get(&key).copied().unwrap_or(0));
                let heated: Vec<((u32, u64), u64)> = dense.heated().collect();
                let want: Vec<((u32, u64), u64)> = model.iter().map(|(&k, &h)| (k, h)).collect();
                prop_assert_eq!(heated, want);
                prop_assert!(dense.listed.len() <= 24);
            }
        }
    }
}
