//! Stage two of the engine: the laundry and writeback. Evicted
//! store-backed pages stay rescuable in the free pool; their dirty data
//! goes to the store with retry and backoff, and a page whose store is
//! dead is quarantined in place. Every store writeback is one ticket in
//! the writeback pipeline: its data lands at submission, its disk time
//! bills when the completion drains, and a synchronous caller waits for
//! its own ticket at once.

use super::*;

/// Entry counts per free-segment slot, indexed by slot number, beside
/// the bitmap of the slots whose count is non-zero: the view the
/// free-slot pickers mask the pool's residency bitmap with. Grows to the
/// highest slot counted, which the free segment's size (the machine's
/// frame count) bounds.
#[derive(Debug, Clone, Default)]
struct SlotCounts {
    counts: Vec<u32>,
    held: Bitmap,
}

impl SlotCounts {
    fn hold(&mut self, slot: PageNumber) {
        let i = usize::try_from(slot.as_u64()).expect("free-pool slots fit the address space");
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.held.set(slot.as_u64());
    }

    /// Releases one entry's hold on `slot`. A slot released more often
    /// than held is a bug in the mirror's owner.
    fn release(&mut self, slot: PageNumber) {
        let i = usize::try_from(slot.as_u64()).ok();
        let count = i.and_then(|i| self.counts.get_mut(i)).filter(|n| **n > 0);
        debug_assert!(count.is_some(), "slot {slot} released but not held");
        if let Some(n) = count {
            *n -= 1;
            if *n == 0 {
                self.held.clear(slot.as_u64());
            }
        }
    }
}

/// A free-segment slot number as stored in the laundry's tables. The free
/// segment has one slot per machine frame.
fn slot_u32(slot: PageNumber) -> u32 {
    u32::try_from(slot.as_u64()).expect("free-pool slots fit a u32")
}

fn slot_page(slot: u32) -> PageNumber {
    PageNumber(u64::from(slot))
}

/// Charges the kernel clock until `done`, returning the wait (zero once
/// `done` has passed): the one wait of a stall, the barrier and a
/// synchronous writeback. Each caller drains the pipeline after it.
fn charge_until(kernel: &mut Kernel, done: Timestamp) -> Micros {
    let wait = done.saturating_duration_since(kernel.now());
    kernel.charge(wait);
    wait
}

/// One laundry mapping: the free-segment slot holding the data and the
/// sequence number of the key's live `order` entry. Sequence numbers
/// start at 1, so a zero entry is vacant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaundrySlot {
    slot: u32,
    seq: u32,
}

impl Vacant for LaundrySlot {
    const VACANT: Self = LaundrySlot { slot: 0, seq: 0 };
}

/// One in-flight writeback of a laundry page: its ticket and the slot
/// its data sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    ticket: TicketId,
    slot: u32,
}

impl Vacant for InFlight {
    const VACANT: Self = InFlight {
        ticket: TicketId::MAX,
        slot: u32::MAX,
    };
}

/// One entry of the laundry's FIFO reuse order.
#[derive(Debug, Clone, Copy)]
struct OrderEntry {
    seg: u32,
    seq: u32,
    page: u64,
}

impl OrderEntry {
    fn key(&self) -> (u32, u64) {
        (self.seg, self.page)
    }

    /// The key's mapping in `map`, if this is its live entry.
    fn live_in(&self, map: &PageRows<LaundrySlot>) -> Option<LaundrySlot> {
        map.get(self.key()).filter(|e| e.seq == self.seq)
    }
}

/// The laundry: reclaimed store-backed pages whose frames still sit,
/// data intact, in the free segment, so that a fault can rescue them
/// without I/O, and which of them still have a writeback in flight.
#[derive(Debug, Default)]
pub(super) struct Laundry {
    /// `(segment, page) ->` the free-segment slot holding its data.
    map: PageRows<LaundrySlot>,
    /// FIFO reuse order. An entry whose sequence number is not its key's
    /// in `map` is a tombstone, left by a removal or by a re-insert (the
    /// page was rescued, re-dirtied and reclaimed again). Pops skip
    /// tombstones, and [`Self::insert`] sweeps them out once they
    /// outnumber the live entries by 64, so the queue stays within twice
    /// the map's size plus 64.
    order: VecDeque<OrderEntry>,
    /// The last sequence number handed out. Numbers are unique among
    /// queued entries: when they run out, the queue is swept and its live
    /// entries renumbered from 1.
    seq: u32,
    /// Incremental mirror of the map's slots as a per-slot entry count,
    /// so the free-slot picker and the append-run scanner check "is this
    /// slot keeping laundry alive?" in O(1).
    slots: SlotCounts,
    /// Entries whose writeback is still in flight ("promised free but
    /// not yet clean"). Always a subset of `map`; consumers that would
    /// clobber the slot's frame must stall to the ticket's completion
    /// first.
    unclean: PageRows<InFlight>,
    /// Per-slot count of `unclean` entries, so the tier-exchange partner
    /// pickers skip in-flight slots in O(1).
    unclean_slots: SlotCounts,
    /// Closed segments that still have laundry. Their rows go with the
    /// last entry.
    closed: BTreeSet<u32>,
}

impl Laundry {
    /// Records `key`'s data surviving in free-segment `slot`. Inserting
    /// over an existing key releases the old slot and gives the key a
    /// new sequence number, turning its old `order` entry into a
    /// tombstone.
    pub(super) fn insert(&mut self, key: (u32, u64), slot: PageNumber) {
        debug_assert!(!self.closed.contains(&key.0), "laundry of a closed segment");
        if self.seq == u32::MAX {
            self.renumber();
        }
        self.seq += 1;
        let entry = LaundrySlot {
            slot: slot_u32(slot),
            seq: self.seq,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.slots.release(slot_page(old.slot));
        }
        self.order.push_back(OrderEntry {
            seg: key.0,
            seq: self.seq,
            page: key.1,
        });
        self.slots.hold(slot);
        if self.order.len() > 2 * self.map.len() + 64 {
            self.sweep();
        }
    }

    /// Drops every tombstone from the order queue.
    fn sweep(&mut self) {
        let map = &self.map;
        self.order.retain(|o| o.live_in(map).is_some());
    }

    /// Restarts the sequence numbers at 1, in queue order. After the
    /// sweep each live key has exactly one queued entry, so the
    /// liveness check stays exact.
    fn renumber(&mut self) {
        self.sweep();
        let mut seq = 0;
        for o in &mut self.order {
            seq += 1;
            o.seq = seq;
            if let Some(mut e) = self.map.get(o.key()) {
                e.seq = seq;
                self.map.insert(o.key(), e);
            }
        }
        self.seq = seq;
    }

    /// Removes `key`'s entry, returning its slot, and clears any
    /// in-flight writeback mark (the frame is leaving the pool's custody;
    /// the ticket itself still bills at completion).
    pub(super) fn remove(&mut self, key: (u32, u64)) -> Option<PageNumber> {
        let slot = slot_page(self.map.remove(key)?.slot);
        self.slots.release(slot);
        self.clear_unclean(key);
        if self.map.row_len(key.0) == 0 && self.closed.remove(&key.0) {
            self.free_rows(key.0);
        }
        Some(slot)
    }

    /// Notes that segment `seg` closed: its laundry outlives it, and its
    /// rows go once the last entry does. A closed segment gains no
    /// laundry.
    pub(super) fn segment_closed(&mut self, seg: u32) {
        if self.map.row_len(seg) == 0 {
            self.free_rows(seg);
        } else {
            self.closed.insert(seg);
        }
    }

    fn free_rows(&mut self, seg: u32) {
        debug_assert_eq!(self.unclean.row_len(seg), 0, "in flight but not laundry");
        self.map.free_row(seg);
        self.unclean.free_row(seg);
    }

    /// Clears `key`'s in-flight writeback mark.
    fn clear_unclean(&mut self, key: (u32, u64)) {
        if let Some(e) = self.unclean.remove(key) {
            self.unclean_slots.release(slot_page(e.slot));
        }
    }

    /// Pops the oldest live key off the order queue, discarding the
    /// tombstones in front of it. The key keeps its entry in the map
    /// until the caller removes it, which it must do before the next
    /// [`Self::keys_in`]: that walks the queue, so it relies on every
    /// mapped key having its live entry there.
    pub(super) fn pop_oldest(&mut self) -> Option<(u32, u64)> {
        while let Some(front) = self.order.pop_front() {
            if front.live_in(&self.map).is_some() {
                return Some(front.key());
            }
        }
        None
    }

    /// Marks `key`'s slot as promised-free but not yet clean: its
    /// writeback `ticket` is still in flight. A re-evict of the same key
    /// supersedes the old mark (the old ticket still bills).
    pub(super) fn mark_unclean(&mut self, key: (u32, u64), ticket: TicketId, slot: PageNumber) {
        let entry = InFlight {
            ticket,
            slot: slot_u32(slot),
        };
        if let Some(old) = self.unclean.insert(key, entry) {
            self.unclean_slots.release(slot_page(old.slot));
        }
        self.unclean_slots.hold(slot);
    }

    /// The free-pool slots holding laundry, and those of them whose
    /// writeback is still in flight.
    pub(super) fn held_slots(&self) -> (&Bitmap, &Bitmap) {
        (&self.slots.held, &self.unclean_slots.held)
    }

    /// The ticket of `key`'s in-flight writeback, if any.
    fn unclean_ticket(&self, key: (u32, u64)) -> Option<TicketId> {
        self.unclean.get(key).map(|e| e.ticket)
    }

    /// Notes that the writeback `ticket` of `key` completed: clears
    /// `key`'s mark if it is still that ticket's. A re-evict's newer mark
    /// stays, and so does the absence of one after a rescue.
    fn cleaned(&mut self, ticket: TicketId, key: (u32, u64)) {
        if self.unclean_ticket(key) == Some(ticket) {
            self.clear_unclean(key);
        }
    }

    /// The keys whose data sits in one of the free-pool `slots`
    /// (ascending), in ascending key order.
    fn keys_in(&self, slots: &[PageNumber]) -> Vec<(u32, u64)> {
        if !slots.iter().any(|slot| self.slots.held.test(slot.as_u64())) {
            return Vec::new();
        }
        let mut keys: Vec<(u32, u64)> = self
            .order
            .iter()
            .filter(|o| {
                o.live_in(&self.map)
                    .is_some_and(|e| slots.binary_search(&slot_page(e.slot)).is_ok())
            })
            .map(OrderEntry::key)
            .collect();
        keys.sort_unstable();
        keys
    }
}

impl<S: Specialization, P: ReplacementPolicy> GenericManager<S, P> {
    /// Runs one backing-store operation with bounded retry and exponential
    /// backoff on the virtual clock. Every injected fault and every retry
    /// is traced; a permanent failure (or a transient one outlasting the
    /// budget) is returned to the caller.
    pub(super) fn store_io_with_retry(
        &mut self,
        env: &mut Env<'_>,
        write: bool,
        mut op: impl FnMut(&mut FileStore) -> Result<Micros, FileStoreError>,
    ) -> Result<Micros, ManagerError> {
        let limit = self.config.io_retry_limit;
        let mut attempt = 0u32;
        loop {
            self.io_stats.attempts += 1;
            let err = match op(env.store) {
                Ok(latency) => return Ok(latency),
                Err(e) => e,
            };
            let (file, op_idx, transient) = match &err {
                FileStoreError::Io {
                    file,
                    op,
                    transient,
                    ..
                } => (file.as_u32(), *op, *transient),
                _ => return Err(ManagerError::Store(err)),
            };
            self.trace(
                env.kernel,
                EventKind::FaultInjected {
                    file,
                    op: op_idx,
                    write,
                    transient,
                },
            );
            if transient && attempt < limit {
                attempt += 1;
                self.io_stats.retries += 1;
                self.trace(
                    env.kernel,
                    EventKind::IoRetry {
                        manager: self.id.0,
                        file,
                        attempt,
                        write,
                    },
                );
                env.kernel
                    .charge(self.config.io_retry_backoff * (1u64 << (attempt - 1).min(20)));
                continue;
            }
            self.io_stats.gave_up += 1;
            return Err(ManagerError::Store(err));
        }
    }

    /// Pins a dirty page whose backing store refuses its data: the frame
    /// is withdrawn from replacement but the data survives in memory.
    pub(super) fn quarantine_in_place(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<(), ManagerError> {
        self.ring.call(
            env.kernel,
            RingOp::ModifyPageFlags {
                seg,
                page,
                count: 1,
                set: PageFlags::PINNED,
                clear: PageFlags::empty(),
            },
        )?;
        if self.quarantined.insert((seg.as_u32(), page.as_u64())) {
            self.io_stats.quarantined_pages += 1;
            self.trace(
                env.kernel,
                EventKind::ManagerQuarantined {
                    manager: self.id.0,
                    pages: self.quarantined.len() as u64,
                    destroyed: false,
                },
            );
        }
        Ok(())
    }

    /// If `key`'s laundry writeback is still in flight, waits (charging
    /// the kernel clock) until its disk reservation completes, then
    /// drains due completions. Callers invoke this before reusing or
    /// clobbering a promised-free frame.
    pub(super) fn stall_until_clean(&mut self, env: &mut Env<'_>, key: (u32, u64)) {
        let now = env.kernel.now();
        let ticket = self.laundry.unclean_ticket(key);
        if let Some(done) = ticket.and_then(|t| self.wb.force_completion_time(now, t)) {
            let wait = charge_until(env.kernel, done);
            self.wb_stats.stalls += 1;
            self.wb_stats.stall_us += wait.as_micros();
        }
        self.drain_writebacks(env);
    }

    /// Drives the writeback pipeline to empty — the fsync-like barrier.
    /// Waits (on the kernel clock) for the last in-flight reservation,
    /// then bills everything drained. A no-op when the pipeline is idle,
    /// as it always is between operations in synchronous mode.
    pub fn flush_writebacks(&mut self, env: &mut Env<'_>) {
        if let Some(done) = self.wb.quiesce(env.kernel.now()) {
            charge_until(env.kernel, done);
        }
        self.drain_writebacks(env);
    }

    /// Bills every writeback completion due by now: its service time and
    /// market I/O charge land here, not at submission, and its "promised
    /// free but not yet clean" mark clears.
    pub(super) fn drain_writebacks(&mut self, env: &mut Env<'_>) {
        let now = env.kernel.now();
        while let Some(c) = self.wb.pop_completion(now) {
            let (seg, page) = c.key;
            self.wb_stats.completed += 1;
            self.wb_stats.billed_us += c.service.as_micros();
            env.spcm.charge_manager_io(self.id, 1);
            self.laundry
                .cleaned(c.ticket, (seg.as_u32(), page.as_u64()));
            // Promotion heat from the completion stream: a page that is
            // re-resident below DRAM by the time its writeback completes
            // was rescued while the disk was still in flight — it is
            // cycling, the strongest re-reference signal the event stream
            // carries.
            self.note_heat(env.kernel, seg, page);
            self.trace(
                env.kernel,
                EventKind::WritebackCompleted {
                    manager: self.id.0,
                    ticket: c.ticket,
                    service_us: c.service.as_micros(),
                },
            );
        }
    }

    /// Drops every laundry entry held by the free-pool `slots` (in
    /// ascending order) before those frames leave the pool or have their
    /// bytes clobbered by a tier exchange: an in-flight writeback
    /// completes first (the clean copy must land on the store), then the
    /// rescue mapping is removed — laundered data was already written
    /// back at reclaim time, so nothing is lost but the no-I/O rescue
    /// opportunity.
    pub(super) fn drop_laundry(&mut self, env: &mut Env<'_>, slots: &[PageNumber]) {
        for key in self.laundry.keys_in(slots) {
            self.stall_until_clean(env, key);
            self.laundry.remove(key);
        }
    }

    /// Resolves a store-backed disposition to its file (the segment's
    /// swap file is created lazily) and whether it is swap. `None` for
    /// unmanaged segments (e.g. the free segment) and for dispositions
    /// that are not store-backed.
    fn store_target(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        to: Disposition,
    ) -> Option<(FileId, bool)> {
        let ms = self.managed.get_mut(&seg.as_u32())?;
        match to {
            Disposition::File(f) => Some((f, false)),
            Disposition::Swap => {
                let f = *ms
                    .swap
                    .get_or_insert_with(|| env.store.create(&format!("swap-{}", seg.as_u32()), 0));
                Some((f, true))
            }
            Disposition::WriteBack | Disposition::Discard => None,
        }
    }

    /// Writes one dirty page back: its bytes go to the store now (file
    /// or swap), retrying transient device failures with backoff, and the
    /// page copy + store latency go to the pipeline as one ticket, billed
    /// when its completion drains. With `wait` the caller does not run
    /// ahead of its disk: the kernel clock is charged up to the ticket's
    /// completion at once, and the caller drains once the page has left
    /// its segment (so the completion finds no page to heat). Returns the
    /// ticket, `None` for an unmanaged segment.
    pub(super) fn writeback(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        to: Disposition,
        wait: bool,
    ) -> Result<Option<TicketId>, ManagerError> {
        let Some((file, is_swap)) = self.store_target(env, seg, to) else {
            return Ok(None);
        };
        let block = env.kernel.manager_read_block(seg, page)?;
        let latency = self.store_io_with_retry(env, true, |store| {
            store.write_block(file, page.as_u64(), &block)
        })?;
        if is_swap {
            if let Some(ms) = self.managed.get_mut(&seg.as_u32()) {
                ms.swapped.set(page.as_u64());
            }
        }
        self.stats.writebacks += 1;
        let now = env.kernel.now();
        let service = env.kernel.costs().page_copy_4k + latency;
        let ticket = self.wb.submit(now, service, (seg, page));
        self.trace(
            env.kernel,
            EventKind::WritebackIssued {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
                ticket,
            },
        );
        if wait {
            if let Some(done) = self.wb.force_completion_time(now, ticket) {
                charge_until(env.kernel, done);
            }
        }
        Ok(Some(ticket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_manager::DefaultSegmentManager;
    use crate::machine::Machine;
    use proptest::prelude::*;

    fn default_machine(config: DefaultManagerConfig, frames: usize) -> (Machine, ManagerId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            config,
        )));
        m.set_default_manager(id);
        (m, id)
    }

    #[test]
    fn laundry_reinsert_tombstones_stale_order_entry() {
        // Regression: re-inserting over an existing key used to leave a
        // stale entry in the order queue that the free-slot path popped
        // and mis-treated as live, dropping the newer mapping out of
        // FIFO order.
        let mut laundry = Laundry::default();
        let a = (1u32, 0u64);
        let b = (2u32, 5u64);
        laundry.insert(a, PageNumber(10));
        laundry.insert(b, PageNumber(11));
        // `a` rescued, re-dirtied, reclaimed again into a new slot:
        laundry.insert(a, PageNumber(12));
        assert!(!laundry.slots.held.test(10));
        assert!(laundry.slots.held.test(11));
        assert!(laundry.slots.held.test(12));
        // The stale front entry for `a` is a tombstone; the oldest live
        // mapping is `b`, then `a`'s re-insert.
        assert_eq!(laundry.pop_oldest(), Some(b));
        assert_eq!(laundry.remove(b), Some(PageNumber(11)));
        assert_eq!(laundry.pop_oldest(), Some(a));
        assert_eq!(laundry.remove(a), Some(PageNumber(12)));
        assert_eq!(laundry.pop_oldest(), None);
        assert!(laundry.slots.counts.iter().all(|&n| n == 0));
        assert!(laundry.slots.held.words().iter().all(|&w| w == 0));
        assert_eq!(laundry.map.len(), 0);
    }

    #[test]
    fn laundry_sequence_numbers_renumber_when_they_run_out() {
        let mut laundry = Laundry::default();
        laundry.insert((0, 1), PageNumber(1));
        laundry.insert((0, 2), PageNumber(2));
        laundry.insert((0, 1), PageNumber(3)); // tombstones the first entry
        laundry.seq = u32::MAX - 1;
        laundry.insert((0, 3), PageNumber(4)); // takes u32::MAX
        laundry.insert((0, 4), PageNumber(5)); // renumbers first
                                               // Three live entries renumbered 1..=3, then the new one.
        assert_eq!(laundry.seq, 4);
        assert_eq!(laundry.order.len(), 4, "the sweep dropped the tombstone");
        let order: Vec<_> = std::iter::from_fn(|| laundry.pop_oldest()).collect();
        assert_eq!(order, [(0, 2), (0, 1), (0, 3), (0, 4)]);
    }

    #[test]
    fn slot_counts_mirror_laundry_and_in_flight_writebacks() {
        // Ticks refill the pool to `target_free` by reclaiming several
        // dirty pages at once, so laundry and in-flight writebacks
        // outlive the faults that follow.
        let config = DefaultManagerConfig {
            target_free: 8,
            low_water: 4,
            refill_batch: 4,
            async_writeback: true,
            writeback_window: 2,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = default_machine(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        let (mut saw_laundry, mut saw_in_flight) = (false, false);
        for round in 0..3u8 {
            for p in 0..40u64 {
                m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8 ^ round; 16])
                    .unwrap();
                m.tick().unwrap();
                let (laundry, in_flight) = m
                    .with_manager(id, |mgr, _| {
                        let d = mgr
                            .as_any()
                            .downcast_ref::<DefaultSegmentManager>()
                            .unwrap();
                        for slot in 0..64 {
                            let count = |counts: &SlotCounts| counts.counts.get(slot).copied();
                            let held = |counts: &SlotCounts| counts.held.test(slot as u64);
                            let l = &d.laundry;
                            // Counted from the tables, by each entry's own slot.
                            let laundry = l.map.entries();
                            let laundry = laundry.filter(|e| e.1.slot as usize == slot).count();
                            let unclean = l.unclean.entries();
                            let unclean = unclean.filter(|e| e.1.slot as usize == slot).count();
                            assert_eq!(count(&l.slots).unwrap_or(0) as usize, laundry);
                            assert_eq!(count(&l.unclean_slots).unwrap_or(0) as usize, unclean);
                            assert_eq!(held(&l.slots), laundry > 0);
                            assert_eq!(held(&l.unclean_slots), unclean > 0);
                        }
                        Ok((d.laundry.map.len() > 0, d.laundry.unclean.len() > 0))
                    })
                    .unwrap();
                saw_laundry |= laundry;
                saw_in_flight |= in_flight;
            }
        }
        assert!(
            saw_laundry && saw_in_flight,
            "run never exercised the mirrors"
        );
    }

    #[test]
    fn closed_segments_free_their_laundry_rows() {
        // The reclaim-heavy tuning above, so every closed segment leaves
        // laundry, some of it in flight, behind.
        let config = DefaultManagerConfig {
            target_free: 8,
            low_water: 4,
            refill_batch: 4,
            async_writeback: true,
            writeback_window: 2,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = default_machine(config, 24);
        let mut saw_closed_laundry = false;
        for round in 0..60u8 {
            let seg = m.create_segment(SegmentKind::Anonymous, 32).unwrap();
            for p in 0..32u64 {
                m.store_bytes(seg, p * BASE_PAGE_SIZE, &[round; 16])
                    .unwrap();
                m.tick().unwrap();
            }
            m.close_segment(seg).unwrap();
            m.tick().unwrap();
            m.with_manager(id, |mgr, _| {
                let d = mgr
                    .as_any()
                    .downcast_ref::<DefaultSegmentManager>()
                    .unwrap();
                let l = &d.laundry;
                saw_closed_laundry |= !l.closed.is_empty();
                for &seg in &l.closed {
                    let left = l.map.entries().filter(|e| e.0 == seg).count();
                    assert_eq!(l.map.row_len(seg), left, "segment {seg}");
                    assert!(left > 0, "segment {seg}");
                }
                // Only closed segments with laundry left keep rows, and
                // the laundry fits the 24-frame pool.
                assert!(l.map.allocated() <= l.closed.len());
                assert!(l.unclean.allocated() <= l.closed.len());
                assert!(l.closed.len() <= 24);
                Ok(())
            })
            .unwrap();
        }
        assert!(saw_closed_laundry, "no segment closed with laundry left");
    }

    /// The laundry bookkeeping as it was before its tables went dense:
    /// `BTreeMap`s keyed by `(segment, page)`, a 64-bit sequence and a
    /// reverse index from ticket to page. The oracle for
    /// `laundry_matches_btree_reference`.
    #[derive(Debug, Default)]
    struct ReferenceLaundry {
        map: BTreeMap<(u32, u64), (PageNumber, u64)>,
        order: VecDeque<((u32, u64), u64)>,
        seq: u64,
        unclean: BTreeMap<(u32, u64), (TicketId, PageNumber)>,
        unclean_by_ticket: BTreeMap<TicketId, (u32, u64)>,
    }

    impl ReferenceLaundry {
        fn insert(&mut self, key: (u32, u64), slot: PageNumber) {
            self.seq += 1;
            self.map.insert(key, (slot, self.seq));
            self.order.push_back((key, self.seq));
        }

        fn remove(&mut self, key: (u32, u64)) -> Option<PageNumber> {
            let (slot, _) = self.map.remove(&key)?;
            if let Some((ticket, _)) = self.unclean.remove(&key) {
                self.unclean_by_ticket.remove(&ticket);
            }
            Some(slot)
        }

        fn pop_oldest(&mut self) -> Option<(u32, u64)> {
            while let Some((key, seq)) = self.order.pop_front() {
                if self.map.get(&key).is_some_and(|e| e.1 == seq) {
                    return Some(key);
                }
            }
            None
        }

        fn mark_unclean(&mut self, key: (u32, u64), ticket: TicketId, slot: PageNumber) {
            if let Some((old, _)) = self.unclean.insert(key, (ticket, slot)) {
                self.unclean_by_ticket.remove(&old);
            }
            self.unclean_by_ticket.insert(ticket, key);
        }

        fn cleaned(&mut self, ticket: TicketId) {
            if let Some(key) = self.unclean_by_ticket.remove(&ticket) {
                self.unclean.remove(&key);
            }
        }

        /// `drop_laundry`'s keys: the map's, in iteration order.
        fn keys_in(&self, slots: &[PageNumber]) -> Vec<(u32, u64)> {
            let held = |e: &(PageNumber, u64)| slots.binary_search(&e.0).is_ok();
            self.map
                .iter()
                .filter(|(_, e)| held(e))
                .map(|(k, _)| *k)
                .collect()
        }

        /// Entries per slot, indexed by slot number.
        fn counts(&self, of_unclean: bool, slots: usize) -> Vec<u32> {
            let mut counts = vec![0; slots];
            let taken: Vec<PageNumber> = if of_unclean {
                self.unclean.values().map(|e| e.1).collect()
            } else {
                self.map.values().map(|e| e.0).collect()
            };
            for slot in taken {
                counts[slot.as_u64() as usize] += 1;
            }
            counts
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense laundry answers every lookup, pop and slot count as
        /// the `BTreeMap` reference does, and `drop_laundry`'s key order
        /// is the map's iteration order, on random streams of inserts,
        /// re-inserts, removals, in-flight marks, completions and segment
        /// closes. Keys are few, so re-inserts and tombstones are common;
        /// half the cases start the sequence next to its end, so it
        /// renumbers.
        #[test]
        fn laundry_matches_btree_reference(
            ops in proptest::collection::vec((0u8..10, 0u32..3, 0u64..12, 0u64..16), 1..300),
            near_wrap in any::<bool>(),
        ) {
            let mut dense = Laundry::default();
            if near_wrap {
                dense.seq = u32::MAX - 40;
            }
            let mut model = ReferenceLaundry::default();
            // Each ticket's key, by ticket - 1: a completion carries it.
            let mut ticket_keys: Vec<(u32, u64)> = Vec::new();
            let mut closed = [false; 3];
            for (kind, seg, page, bits) in ops {
                let (key, slot) = ((seg, page), PageNumber(bits));
                match kind {
                    // A closed segment gains no laundry.
                    0..=2 | 5 if closed[seg as usize] => {}
                    0..=2 => {
                        dense.insert(key, slot);
                        model.insert(key, slot);
                    }
                    3 => prop_assert_eq!(dense.remove(key), model.remove(key)),
                    4 => {
                        // The engine drops the popped key from the pool.
                        let popped = dense.pop_oldest();
                        prop_assert_eq!(popped, model.pop_oldest());
                        if let Some(key) = popped {
                            prop_assert_eq!(dense.remove(key), model.remove(key));
                        }
                    }
                    5 => {
                        // The engine marks only a key it just laundered.
                        if let Some(&(at, _)) = model.map.get(&key) {
                            ticket_keys.push(key);
                            let ticket = ticket_keys.len() as TicketId;
                            dense.mark_unclean(key, ticket, at);
                            model.mark_unclean(key, ticket, at);
                        }
                    }
                    6 => {
                        let ticket = bits % (ticket_keys.len() as TicketId + 1);
                        if let Some(&of) = ticket_keys.get(ticket.wrapping_sub(1) as usize) {
                            dense.cleaned(ticket, of);
                            model.cleaned(ticket);
                        }
                    }
                    7 => {
                        // A sorted slot set drawn from the op's bits.
                        let slots: Vec<PageNumber> =
                            (0..16).filter(|i| (page * 7 + bits) >> (i % 7) & 1 == 1)
                                .map(PageNumber).collect();
                        prop_assert_eq!(dense.keys_in(&slots), model.keys_in(&slots));
                    }
                    8 if bits < 2 && !closed[seg as usize] => {
                        closed[seg as usize] = true;
                        dense.segment_closed(seg);
                    }
                    _ => {}
                }
                // A closed segment's rows go with its last entry.
                for seg in (0..3).filter(|&s| closed[s as usize]) {
                    let left = model.map.keys().any(|k| k.0 == seg);
                    prop_assert_eq!(dense.map.holds_row(seg), left);
                    prop_assert!(left || !dense.unclean.holds_row(seg));
                }
                prop_assert_eq!(
                    dense.map.get(key).map(|e| slot_page(e.slot)),
                    model.map.get(&key).map(|e| e.0)
                );
                prop_assert_eq!(
                    dense.unclean_ticket(key),
                    model.unclean.get(&key).map(|e| e.0)
                );
                prop_assert_eq!(dense.map.len(), model.map.len());
                prop_assert_eq!(dense.unclean.len(), model.unclean.len());
                for seg in 0..3 {
                    let left = model.map.keys().filter(|k| k.0 == seg).count();
                    prop_assert_eq!(dense.map.row_len(seg), left);
                    let in_flight = model.unclean.keys().filter(|k| k.0 == seg).count();
                    prop_assert_eq!(dense.unclean.row_len(seg), in_flight);
                }
                let counts = |c: &SlotCounts| {
                    (0..16).map(|i| c.counts.get(i).copied().unwrap_or(0)).collect::<Vec<_>>()
                };
                prop_assert_eq!(counts(&dense.slots), model.counts(false, 16));
                prop_assert_eq!(counts(&dense.unclean_slots), model.counts(true, 16));
                prop_assert!(dense.order.len() <= 2 * dense.map.len() + 65);
            }
            let all: Vec<PageNumber> = (0..16).map(PageNumber).collect();
            prop_assert_eq!(dense.keys_in(&all), model.keys_in(&all));
        }
    }
}
