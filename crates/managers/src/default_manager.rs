//! The default segment manager (§2.3) — the extended UCDS.
//!
//! Conventional programs never see external page-cache management: this
//! server-mode manager gives them a transparent demand-paged system built
//! entirely from the kernel's exported operations. It maintains a
//! free-page segment, fills file pages from the backing store, swaps
//! anonymous pages, batches allocation for file appends in 16 KB units
//! (the paper's noted difference from Ultrix), runs a clock replacement
//! policy driven by protection-fault reference sampling with batched
//! re-enabling, and keeps reclaimed-but-unreused frames rescuable (the
//! paper's migrate-it-back trick). On tiered machines the clock gains a
//! demotion stage: dirty second-chance victims on DRAM frames trade
//! places with spare lower-tier pool frames instead of paying writeback
//! I/O, and a bankrupt manager demotes cold pages at tick time to cut
//! its market bill rather than losing frames to forced seizure.
//!
//! With [`DefaultManagerConfig::async_writeback`] on, laundry cleaning
//! runs through an asynchronous pipeline: the dirty victim's bytes land
//! on the store at eviction time (so retry, quarantine and data
//! integrity are identical to the synchronous path), but the disk *time*
//! is booked as a [`epcm_sim::writeback::WritebackPipeline`] reservation
//! and billed when the completion fires. Faults, clock sampling and
//! demotion exchanges proceed while laundry drains in the background;
//! any consumer that needs a promised-free frame before its writeback
//! completed stalls to the completion instant (DESIGN.md §11).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use epcm_core::fault::{FaultEvent, FaultKind};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{RingOp, RingPort, DEFAULT_RING_CAPACITY};
use epcm_core::tier::MemTier;
use epcm_core::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_sim::clock::Micros;
use epcm_sim::disk::{FileId, FileStore, FileStoreError};
use epcm_sim::writeback::{TicketId, WritebackPipeline};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::compress::{rle_compress, CompressStats};
use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::policy::{ClockPolicy, Probe, ReplacementPolicy};
use crate::spcm::PhysConstraint;

/// Where a managed segment's page data lives when not resident.
#[derive(Debug, Clone)]
enum Backing {
    /// A cached file: pages are the file's blocks.
    File(FileId),
    /// Anonymous memory, swapped on demand; the swap file is created
    /// lazily, `swapped` lists pages with valid swap copies.
    Anonymous {
        swap: Option<FileId>,
        swapped: BTreeSet<u64>,
    },
}

#[derive(Debug, Clone)]
struct ManagedSegment {
    backing: Backing,
}

/// Outcome of one demotion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Demotion {
    /// The page now sits on a lower-tier frame.
    Done,
    /// The page is eligible but no lower-tier frame is pooled yet.
    NoTarget,
    /// The page is gone, or not on a DRAM frame.
    Ineligible,
}

/// Counters exposed for Table 3 and the extended analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultManagerStats {
    /// Faults handled, all kinds.
    pub faults: u64,
    /// Minimal faults (frame handed over with no fill).
    pub minimal_faults: u64,
    /// Pages filled from a backing file.
    pub file_fills: u64,
    /// Pages filled from swap.
    pub swap_ins: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Pages reclaimed by the replacement policy.
    pub reclaimed: u64,
    /// Reclaimed pages rescued before reuse (migrated straight back).
    pub laundry_rescues: u64,
    /// Protection faults that were reference-sampling events.
    pub sampling_faults: u64,
    /// Copy-on-write faults serviced.
    pub cow_faults: u64,
    /// Append faults that allocated a 16 KB batch.
    pub append_batches: u64,
    /// `MigratePages` invocations made by this manager while handling
    /// faults (Table 3 column 2).
    pub migrate_calls: u64,
    /// Pages demoted to a cheaper memory tier instead of being written
    /// back and evicted (tier exchange via `MigrateFrame`).
    pub demotions: u64,
    /// Hot pages promoted to a faster memory tier by the promotion
    /// ladder (tier exchange via `MigrateFrame`; 0 with the ladder off).
    pub promotions: u64,
}

/// Counters for the hot-page promotion ladder (all zero with
/// `promotion_budget` 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionStats {
    /// Heat events accumulated from the fault / sampling / writeback-
    /// completion streams for pages resident below DRAM.
    pub heat_events: u64,
    /// Promotions that landed on a spare free-pool DRAM frame.
    pub to_free: u64,
    /// Promotions that displaced a cold DRAM victim (exchange with a
    /// resident page, victim demoted to the hot page's old frame).
    pub swapped: u64,
    /// Promotion attempts dropped because no free DRAM frame and no
    /// cold unpinned DRAM victim existed that tick.
    pub no_target: u64,
}

/// Counters for the writeback path, synchronous and pipelined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WritebackStats {
    /// Total I/O time billed for completed writebacks, µs (page copy +
    /// store latency). Billed inline in synchronous mode, at completion
    /// in asynchronous mode; at in-flight window 1 the totals are equal
    /// by construction.
    pub billed_us: u64,
    /// Fault-path kernel time spent on dirty-victim writeback, µs.
    /// Drops to zero (absent injected-fault retry backoff) when the
    /// asynchronous pipeline is on.
    pub dirty_victim_us: u64,
    /// Times a consumer needed a promised-free frame before its
    /// writeback completed and had to wait for the disk.
    pub stalls: u64,
    /// Total kernel time charged for those stalls, µs.
    pub stall_us: u64,
    /// Laundry mappings evicted to satisfy free-slot demand. Their clean
    /// copy is already on the store, so no data is lost — only the
    /// no-I/O rescue opportunity.
    pub laundry_dropped: u64,
    /// Writebacks whose I/O has been billed (inline or via completion).
    pub completed: u64,
}

/// Counters for the retry-with-backoff backing-store I/O path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoRetryStats {
    /// Store operations attempted (first tries and retries).
    pub attempts: u64,
    /// Retries issued after a transient injected failure.
    pub retries: u64,
    /// Operations abandoned: a permanent failure, or transient failures
    /// outlasting the retry budget.
    pub gave_up: u64,
    /// Dirty pages pinned in place because their writeback target is dead.
    pub quarantined_pages: u64,
}

/// Tuning knobs for the default manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultManagerConfig {
    /// Free-pool size the manager tries to keep on hand.
    pub target_free: u64,
    /// Refill the pool when it drops below this.
    pub low_water: u64,
    /// Frames requested from the SPCM per refill.
    pub refill_batch: u64,
    /// Pages allocated per append fault (16 KB = 4 pages, §3.2).
    pub append_batch: u64,
    /// Contiguous pages re-enabled per sampling protection fault ("the
    /// default manager changes the protection on a number of contiguous
    /// pages, rather than a single page").
    pub protection_batch: u64,
    /// Resident pages protection-revoked per tick for reference sampling
    /// (0 disables sampling).
    pub sample_batch: u64,
    /// Retries per backing-store operation before giving up on a
    /// transiently failing device (0 = fail on first error).
    pub io_retry_limit: u32,
    /// Virtual-time delay before the first retry; doubles per attempt.
    pub io_retry_backoff: Micros,
    /// Upper bound on tier demotions per reclaim pass and per
    /// market-driven rebalance (0 disables demotion). Only meaningful on
    /// tiered machines; dram-only layouts never demote.
    pub demote_batch: u64,
    /// Clean dirty victims through the asynchronous writeback pipeline:
    /// the data lands on the store at eviction time, but the disk time
    /// is billed when the scheduled completion fires instead of being
    /// charged inline on the fault path.
    pub async_writeback: bool,
    /// Maximum writeback disk reservations outstanding at once in
    /// asynchronous mode (clamped to at least 1).
    pub writeback_window: usize,
    /// Disk arms serving the asynchronous writeback pipeline (clamped to
    /// at least 1).
    pub writeback_servers: usize,
    /// Coalesce the batch sites' page operations (the 16-page protection
    /// restore, the sampling sweep) into one ring doorbell per batch.
    /// Off, every op rings its own doorbell, which reproduces the
    /// paper's synchronous per-call costs. Every other site issues
    /// single-op batches either way ([`epcm_core::ring::RingPort`]).
    pub batched_abi: bool,
    /// Capacity of the submission and completion rings, in entries
    /// (clamped to at least 1).
    pub ring_capacity: usize,
    /// Upper bound on hot-page promotions per tick (0 disables the
    /// promotion ladder entirely — no heat is tracked and no exchange is
    /// attempted, so default runs are byte-identical with pre-promotion
    /// builds). Only meaningful on tiered machines; dram-only layouts
    /// never promote.
    pub promotion_budget: u64,
    /// Access-heat a non-DRAM-resident page must accumulate (fault-time
    /// re-references, sampling hits, writeback completions) before it is
    /// a promotion candidate.
    pub promotion_threshold: u64,
}

impl Default for DefaultManagerConfig {
    fn default() -> Self {
        DefaultManagerConfig {
            target_free: 64,
            low_water: 8,
            refill_batch: 64,
            append_batch: 4,
            protection_batch: 16,
            sample_batch: 0,
            io_retry_limit: 4,
            io_retry_backoff: Micros::new(500),
            demote_batch: 8,
            async_writeback: false,
            writeback_window: 4,
            writeback_servers: 1,
            batched_abi: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
            promotion_budget: 0,
            promotion_threshold: 2,
        }
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
#[derive(Debug)]
pub struct DefaultSegmentManager {
    id: ManagerId,
    mode: ManagerMode,
    config: DefaultManagerConfig,
    free_seg: Option<SegmentId>,
    managed: BTreeMap<u32, ManagedSegment>,
    policy: ClockPolicy,
    /// Reclaimed pages whose frames still sit (data intact) in the free
    /// segment: `(segment, page) -> free-segment slot` plus an insertion
    /// sequence number. FIFO reuse order via `laundry_order`; an order
    /// entry whose sequence no longer matches the map's is a tombstone
    /// left behind by a re-insert (the page was rescued, re-dirtied and
    /// reclaimed again) and is skipped on pop.
    laundry: BTreeMap<(u32, u64), LaundrySlot>,
    laundry_order: VecDeque<((u32, u64), u64)>,
    laundry_seq: u64,
    /// Incremental mirror of `laundry.values()` as a per-slot entry
    /// count, so the free-slot picker and the append-run scanner check
    /// "is this slot keeping laundry alive?" in O(1) instead of
    /// rebuilding a set from the whole map on every fault.
    laundry_slots: SlotCounts,
    /// Cursor for the sampling sweep.
    sample_cursor: (u32, u64),
    /// Dirty pages pinned in place after their writeback target died:
    /// `(segment, page)`. Their data is preserved but their frames are
    /// withdrawn from replacement.
    quarantined: BTreeSet<(u32, u64)>,
    stats: DefaultManagerStats,
    io_stats: IoRetryStats,
    /// Accounting for the CompressedRam tier backend (the `compress.rs`
    /// RLE scheme refitted as a tier): pages demoted into zram frames are
    /// compressed on the way in.
    zram_stats: CompressStats,
    /// The asynchronous laundry pipeline (idle in synchronous mode).
    wb: WritebackPipeline,
    /// Laundry entries whose writeback is still in flight ("promised
    /// free but not yet clean"): `(segment, page) -> (ticket, slot)`.
    /// Always a subset of `laundry`; consumers that would clobber the
    /// slot's frame must stall to the ticket's completion first.
    unclean: BTreeMap<(u32, u64), (TicketId, PageNumber)>,
    /// Reverse index of `unclean` for completion-time lookup.
    unclean_by_ticket: BTreeMap<TicketId, (u32, u64)>,
    /// Per-slot count of `unclean` entries, so the tier-exchange partner
    /// pickers skip in-flight slots in O(1).
    unclean_slots: SlotCounts,
    wb_stats: WritebackStats,
    /// This manager's end of the kernel ABI; every page operation rides
    /// it.
    ring: RingPort,
    /// Access heat per non-DRAM-resident page, `(segment, page) ->
    /// count`, fed by fault-time re-references, sampling-window hits and
    /// writeback completions. Empty (never written) with the promotion
    /// ladder off. Entries for pages that leave residency or reach DRAM
    /// on their own are pruned lazily during the tick scan.
    heat: BTreeMap<(u32, u64), u64>,
    /// Ticket -> page map for in-flight writebacks, maintained only with
    /// the promotion ladder on, so a completion can heat its page even
    /// after a laundry rescue cleared the `unclean` mark.
    wb_keys: BTreeMap<TicketId, (SegmentId, PageNumber)>,
    promo_stats: PromotionStats,
    tracer: Option<SharedTracer>,
}

/// Entry counts per free-segment slot, indexed by slot number. Grows to
/// the highest slot counted, which the free segment's size (the
/// machine's frame count) bounds.
#[derive(Debug, Clone, Default)]
struct SlotCounts(Vec<u32>);

impl SlotCounts {
    fn hold(&mut self, slot: PageNumber) {
        let i = usize::try_from(slot.as_u64()).expect("free-pool slots fit the address space");
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn release(&mut self, slot: PageNumber) {
        let i = usize::try_from(slot.as_u64()).ok();
        if let Some(n) = i.and_then(|i| self.0.get_mut(i)) {
            *n = n.saturating_sub(1);
        }
    }

    fn holds(&self, slot: PageNumber) -> bool {
        usize::try_from(slot.as_u64())
            .ok()
            .and_then(|i| self.0.get(i))
            .is_some_and(|&n| n > 0)
    }
}

/// One laundry mapping: the free-segment slot holding the data and the
/// insertion sequence number that distinguishes it from tombstoned
/// `laundry_order` entries for the same key.
#[derive(Debug, Clone, Copy)]
struct LaundrySlot {
    slot: PageNumber,
    seq: u64,
}

impl DefaultSegmentManager {
    /// A default manager in the paper's deployed configuration: a separate
    /// server process.
    pub fn server() -> Self {
        DefaultSegmentManager::with_config(ManagerMode::Server, DefaultManagerConfig::default())
    }

    /// A manager executing in the faulting process — the cheap dispatch
    /// mode of Table 1 row 1, used by application-specific managers.
    pub fn in_process() -> Self {
        DefaultSegmentManager::with_config(
            ManagerMode::FaultingProcess,
            DefaultManagerConfig::default(),
        )
    }

    /// Full control over mode and tuning.
    pub fn with_config(mode: ManagerMode, config: DefaultManagerConfig) -> Self {
        let wb = WritebackPipeline::new(config.writeback_servers, config.writeback_window);
        let ring = RingPort::with_capacity(config.ring_capacity);
        DefaultSegmentManager {
            id: ManagerId(u32::MAX),
            mode,
            config,
            free_seg: None,
            managed: BTreeMap::new(),
            policy: ClockPolicy::new(),
            laundry: BTreeMap::new(),
            laundry_order: VecDeque::new(),
            laundry_seq: 0,
            laundry_slots: SlotCounts::default(),
            sample_cursor: (0, 0),
            quarantined: BTreeSet::new(),
            stats: DefaultManagerStats::default(),
            io_stats: IoRetryStats::default(),
            zram_stats: CompressStats::default(),
            wb,
            unclean: BTreeMap::new(),
            unclean_by_ticket: BTreeMap::new(),
            unclean_slots: SlotCounts::default(),
            wb_stats: WritebackStats::default(),
            ring,
            heat: BTreeMap::new(),
            wb_keys: BTreeMap::new(),
            promo_stats: PromotionStats::default(),
            tracer: None,
        }
    }

    /// Records `kind` at the current virtual time, if tracing is on.
    fn trace(&self, kernel: &Kernel, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(TraceEvent::new(kernel.now().as_micros(), kind));
        }
    }

    /// Manager counters.
    pub fn manager_stats(&self) -> DefaultManagerStats {
        self.stats
    }

    /// Retry/backoff counters for backing-store I/O.
    pub fn io_retry_stats(&self) -> IoRetryStats {
        self.io_stats
    }

    /// Writeback-path counters (billing, stalls, laundry drops).
    pub fn writeback_stats(&self) -> WritebackStats {
        self.wb_stats
    }

    /// Writebacks currently in flight in the asynchronous pipeline.
    pub fn writebacks_in_flight(&self) -> usize {
        self.wb.in_flight() + self.wb.queued()
    }

    /// High-water mark of concurrently issued writebacks over the run.
    pub fn writeback_inflight_peak(&self) -> u64 {
        self.wb.inflight_peak()
    }

    /// Dirty pages currently pinned in quarantine.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Compression accounting for pages demoted into CompressedRam frames.
    pub fn zram_stats(&self) -> CompressStats {
        self.zram_stats
    }

    /// Promotion-ladder counters (all zero with `promotion_budget` 0).
    pub fn promotion_stats(&self) -> PromotionStats {
        self.promo_stats
    }

    /// True when the hot-page promotion ladder is configured on.
    fn promotion_on(&self) -> bool {
        self.config.promotion_budget > 0
    }

    /// Accumulates one unit of access heat for `(seg, page)` if the
    /// promotion ladder is on and the page is currently resident on a
    /// non-DRAM frame. Called from the three event streams the ladder
    /// rides: fault-time re-references ([`Self::handle_missing`]),
    /// sampling-window hits ([`Self::handle_protection`]) and writeback
    /// completions ([`Self::writeback_completed`]).
    fn note_heat(&mut self, kernel: &Kernel, seg: SegmentId, page: PageNumber) {
        if !self.promotion_on() {
            return;
        }
        let tiers = *kernel.tiers();
        if tiers.is_dram_only() {
            return;
        }
        let Ok(segment) = kernel.segment(seg) else {
            return;
        };
        let Some(entry) = segment.entry(page) else {
            return;
        };
        if tiers.tier_of(entry.frame) == MemTier::Dram {
            return;
        }
        *self.heat.entry((seg.as_u32(), page.as_u64())).or_insert(0) += 1;
        self.promo_stats.heat_events += 1;
    }

    /// Runs one backing-store operation with bounded retry and exponential
    /// backoff on the virtual clock. Every injected fault and every retry
    /// is traced; a permanent failure (or a transient one outlasting the
    /// budget) is returned to the caller.
    fn store_io_with_retry(
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
    fn quarantine_in_place(
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

    /// The manager's free-page segment, once created.
    pub fn free_segment(&self) -> Option<SegmentId> {
        self.free_seg
    }

    fn free_seg(&mut self, env: &mut Env<'_>) -> Result<SegmentId, ManagerError> {
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
            1,
            frames,
        )?;
        self.free_seg = Some(seg);
        Ok(seg)
    }

    fn free_count(&self, kernel: &Kernel) -> u64 {
        self.free_seg
            .and_then(|s| kernel.resident_pages(s).ok())
            .unwrap_or(0)
    }

    /// Ensures at least `want` frames sit in the free pool, requesting
    /// from the SPCM and then reclaiming managed pages if refused.
    fn ensure_free(&mut self, env: &mut Env<'_>, want: u64) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let have = self.free_count(env.kernel);
        if have >= want {
            return Ok(());
        }
        let ask = (want - have).max(self.config.refill_batch);
        let grant =
            env.spcm
                .request_frames(env.kernel, self.id, free_seg, ask, PhysConstraint::Any)?;
        if self.free_count(env.kernel) >= want {
            return Ok(());
        }
        let _ = grant;
        // SPCM would not (fully) provide: reclaim our own pages.
        let deficit = want - self.free_count(env.kernel);
        self.reclaim_into_pool(env, deficit)?;
        if self.free_count(env.kernel) >= want {
            Ok(())
        } else {
            Err(ManagerError::OutOfFrames { manager: self.id })
        }
    }

    /// Records `key`'s data surviving in free-segment `slot`. Inserting
    /// over an existing key releases the old slot and bumps the sequence
    /// number, turning the old `laundry_order` entry into a tombstone
    /// that [`Self::oldest_live_laundry`] skips — the pop path can never
    /// mis-treat the stale entry as live.
    fn laundry_insert(&mut self, key: (u32, u64), slot: PageNumber) {
        self.laundry_seq += 1;
        let seq = self.laundry_seq;
        if let Some(old) = self.laundry.insert(key, LaundrySlot { slot, seq }) {
            self.laundry_slots.release(old.slot);
        }
        self.laundry_order.push_back((key, seq));
        self.laundry_slots.hold(slot);
    }

    /// Removes a laundry entry, keeping the slot-count mirror in sync and
    /// clearing any in-flight writeback mark (the frame is leaving the
    /// pool's custody; the ticket itself still bills at completion).
    fn laundry_remove(&mut self, key: &(u32, u64)) -> Option<PageNumber> {
        let entry = self.laundry.remove(key)?;
        self.laundry_slots.release(entry.slot);
        if let Some(ticket) = self.unclean_remove(key) {
            self.unclean_by_ticket.remove(&ticket);
        }
        Some(entry.slot)
    }

    /// Clears `key`'s in-flight writeback mark, returning its ticket.
    /// The reverse index is the caller's to keep.
    fn unclean_remove(&mut self, key: &(u32, u64)) -> Option<TicketId> {
        let (ticket, slot) = self.unclean.remove(key)?;
        self.unclean_slots.release(slot);
        Some(ticket)
    }

    /// The oldest laundry key whose order entry is still live, discarding
    /// tombstones (entries superseded by a re-insert) from the front of
    /// the order queue. The returned key stays at the queue front.
    fn oldest_live_laundry(&mut self) -> Option<(u32, u64)> {
        while let Some(&(key, seq)) = self.laundry_order.front() {
            if self.laundry.get(&key).is_some_and(|e| e.seq == seq) {
                return Some(key);
            }
            self.laundry_order.pop_front();
        }
        None
    }

    /// Marks `key`'s laundry slot as promised-free but not yet clean:
    /// its writeback `ticket` is still in flight. A re-evict of the same
    /// key supersedes the old mark (the old ticket still bills).
    fn register_unclean(&mut self, key: (u32, u64), ticket: TicketId, slot: PageNumber) {
        if let Some((old, old_slot)) = self.unclean.insert(key, (ticket, slot)) {
            self.unclean_by_ticket.remove(&old);
            self.unclean_slots.release(old_slot);
        }
        self.unclean_slots.hold(slot);
        self.unclean_by_ticket.insert(ticket, key);
    }

    /// Takes one free slot, evicting the oldest laundry entry if every
    /// free frame is acting as a laundry page.
    fn take_free_slot(&mut self, env: &mut Env<'_>) -> Result<PageNumber, ManagerError> {
        let free_seg = self.free_seg(env)?;
        self.ensure_free(env, 1)?;
        let pick = env
            .kernel
            .segment(free_seg)?
            .resident()
            .map(|(p, _)| p)
            .find(|&p| !self.laundry_slots.holds(p));
        if let Some(p) = pick {
            return Ok(p);
        }
        // All free frames hold laundry: evict the oldest live mapping.
        // Its clean copy is already on the store (written at reclaim
        // time), so no data is lost — but an in-flight writeback must
        // finish before the frame's bytes are clobbered, and the evicted
        // rescue opportunity is traced and counted, never silent.
        while let Some(key) = self.oldest_live_laundry() {
            self.laundry_order.pop_front();
            self.stall_until_clean(env, key);
            if let Some(slot) = self.laundry_remove(&key) {
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

    /// If `key`'s laundry writeback is still in flight, waits (charging
    /// the kernel clock) until its disk reservation completes, then
    /// drains due completions. Callers invoke this before reusing or
    /// clobbering a promised-free frame.
    fn stall_until_clean(&mut self, env: &mut Env<'_>, key: (u32, u64)) {
        if let Some(&(ticket, _)) = self.unclean.get(&key) {
            let now = env.kernel.now();
            if let Some(done) = self.wb.force_completion_time(now, ticket) {
                let wait = done.saturating_duration_since(now);
                if wait > Micros::ZERO {
                    env.kernel.charge(wait);
                }
                self.wb_stats.stalls += 1;
                self.wb_stats.stall_us += wait.as_micros();
            }
        }
        self.drain_writebacks(env);
    }

    /// Books one writeback completion: bills its service time and market
    /// I/O charge, clears the "promised free but not yet clean" mark, and
    /// traces it.
    fn writeback_completed(&mut self, env: &mut Env<'_>, ticket: TicketId, service: Micros) {
        self.wb_stats.completed += 1;
        self.wb_stats.billed_us += service.as_micros();
        env.spcm.charge_manager_io(self.id, 1);
        if let Some(key) = self.unclean_by_ticket.remove(&ticket) {
            self.unclean_remove(&key);
        }
        // Promotion heat from the completion stream: a page that is
        // re-resident below DRAM by the time its writeback completes was
        // rescued while the disk was still in flight — it is cycling,
        // the strongest re-reference signal the event stream carries.
        if let Some((s, p)) = self.wb_keys.remove(&ticket) {
            self.note_heat(env.kernel, s, p);
        }
        self.trace(
            env.kernel,
            EventKind::WritebackCompleted {
                manager: self.id.0,
                ticket,
                service_us: service.as_micros(),
            },
        );
    }

    /// Bills every writeback completion due by now: its service time and
    /// market I/O charge land here, not at issue, and its "promised free
    /// but not yet clean" mark clears.
    fn drain_writebacks(&mut self, env: &mut Env<'_>) {
        if self.wb.is_idle() {
            return;
        }
        let now = env.kernel.now();
        for c in self.wb.poll(now) {
            self.writeback_completed(env, c.ticket, c.service);
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

    /// `ModifyPageFlags` at a batch site (protection restore, sampling
    /// sweep). With `batched_abi` on the op is only queued, and the
    /// site's closing flush rings one doorbell for the whole batch; off,
    /// the op rings its own doorbell now.
    fn op_modify_flags_deferred(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        let op = RingOp::ModifyPageFlags {
            seg,
            page,
            count,
            set,
            clear,
        };
        if self.config.batched_abi {
            self.ring.submit(env.kernel, op)?;
        } else {
            self.ring.call(env.kernel, op)?;
        }
        Ok(())
    }

    /// Drives the writeback pipeline to empty — the fsync-like barrier.
    /// Waits (on the kernel clock) for the last in-flight reservation,
    /// then bills everything drained. A no-op in synchronous mode.
    pub fn flush_writebacks(&mut self, env: &mut Env<'_>) {
        let now = env.kernel.now();
        if let Some(done) = self.wb.quiesce(now) {
            let wait = done.saturating_duration_since(now);
            if wait > Micros::ZERO {
                env.kernel.charge(wait);
            }
        }
        self.drain_writebacks(env);
    }

    /// Reclaims `count` pages from managed segments into the free pool,
    /// writing dirty data back first. Reclaimed pages stay rescuable until
    /// their frame is reused. Dirty victims whose store is dead are
    /// quarantined in place and another victim is tried, so a failing
    /// device degrades capacity instead of wedging replacement.
    fn reclaim_into_pool(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        let free_seg = self.free_seg(env)?;
        let mut reclaimed = 0;
        let mut demoted = 0;
        let mut deferred: VecDeque<(SegmentId, PageNumber)> = VecDeque::new();
        let mut attempts = 0;
        while reclaimed < count && attempts < count * 2 + 8 + demoted {
            attempts += 1;
            let victim = {
                let kernel = &mut *env.kernel;
                self.policy.select_victim(&mut |s, p| {
                    match kernel.get_page_attributes(s, p, 1) {
                        Ok(attrs) if attrs[0].present => {
                            let flags = attrs[0].flags;
                            if flags.contains(PageFlags::PINNED) {
                                Probe::Pinned
                            } else if flags.contains(PageFlags::REFERENCED) {
                                // Second chance: clear the bit.
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
            if demoted + (deferred.len() as u64) < self.config.demote_batch {
                let dirty = env
                    .kernel
                    .get_page_attributes(seg, page, 1)
                    .ok()
                    .is_some_and(|a| a[0].present && a[0].flags.contains(PageFlags::DIRTY));
                if dirty {
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

    /// Writes back (if dirty) and migrates one page into the free pool.
    /// Returns whether a frame was actually freed: a dirty page whose
    /// store is permanently failing is quarantined in place instead
    /// (`false`), leaving the caller to pick another victim.
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
        let mut ticket = None;
        if entry.flags.contains(PageFlags::DIRTY) {
            let before = env.kernel.now();
            let outcome = if self.config.async_writeback {
                self.writeback_async(env, seg, page)
            } else {
                self.writeback(env, seg, page).map(|()| None)
            };
            match outcome {
                Ok(t) => ticket = t,
                Err(ManagerError::Store(FileStoreError::Io { .. })) => {
                    self.quarantine_in_place(env, seg, page)?;
                    return Ok(false);
                }
                Err(other) => return Err(other),
            }
            // Fault-path time spent on this dirty victim: copy + latency
            // inline in sync mode; only injected-fault retry backoff in
            // async mode (the disk time bills at completion instead).
            self.wb_stats.dirty_victim_us += env.kernel.now().duration_since(before).as_micros();
        }
        // Destination: first empty slot in the free segment.
        let slot = first_empty_slot(env.kernel, free_seg)?;
        self.op_migrate_pages(
            env,
            seg,
            free_seg,
            page,
            slot,
            1,
            PageFlags::RW,
            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
        )?;
        let key = (seg.as_u32(), page.as_u64());
        self.laundry_insert(key, slot);
        if let Some(t) = ticket {
            self.register_unclean(key, t, slot);
        }
        self.stats.reclaimed += 1;
        Ok(true)
    }

    /// Picks a free-pool slot whose frame sits below DRAM as the tier
    /// exchange partner, preferring SlowMem over CompressedRam (demotion
    /// walks the ladder one rung at a time) and laundry-free slots over
    /// laundered ones (the exchange clobbers the slot's bytes, so a
    /// laundered slot costs its rescue entries). Returns the slot, its
    /// frame, and the frame's tier.
    fn demotion_target(
        &self,
        kernel: &Kernel,
        free_seg: SegmentId,
    ) -> Option<(PageNumber, FrameId, MemTier)> {
        let tiers = *kernel.tiers();
        let seg = kernel.segment(free_seg).ok()?;
        let mut best: Option<(u32, PageNumber, FrameId, MemTier)> = None;
        for (p, e) in seg.resident() {
            let tier = tiers.tier_of(e.frame);
            if tier == MemTier::Dram {
                continue;
            }
            // A slot whose laundry writeback is still in flight is not
            // clobberable without stalling on the disk; prefer any other
            // partner outright.
            if self.unclean_slots.holds(p) {
                continue;
            }
            let laundered = self.laundry_slots.holds(p);
            let score = u32::from(laundered) * 2 + u32::from(tier != MemTier::SlowMem);
            if score == 0 {
                return Some((p, e.frame, tier));
            }
            if best.is_none_or(|(s, ..)| score < s) {
                best = Some((score, p, e.frame, tier));
            }
        }
        best.map(|(_, p, f, t)| (p, f, t))
    }

    /// Attempts to demote `page` — resident on a DRAM frame — into a
    /// spare lower-tier free-pool frame via a kernel tier exchange. The
    /// page stays resident (only its physical frame changes), so no
    /// writeback I/O happens and the manager's DRAM bill shrinks.
    fn try_demote(
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
        let Some((slot, dst, dst_tier)) = self.demotion_target(env.kernel, free_seg) else {
            return Ok(Demotion::NoTarget);
        };
        // The exchange overwrites the slot's bytes: any laundry it holds
        // must be dropped first (the same invariant take_free_slot uses —
        // laundered data was already written back at reclaim time), and
        // an in-flight writeback must complete before the clobber.
        self.drop_slot_laundry(env, slot);
        if dst_tier == MemTier::CompressedRam {
            // The refitted compress.rs scheme backs this tier: account
            // the RLE work a real zram device would do on the way in.
            let mut buf = vec![0u8; BASE_PAGE_SIZE as usize];
            env.kernel.manager_read_page(seg, page, &mut buf)?;
            let stored = rle_compress(&buf).len() as u64;
            self.zram_stats.compressed += 1;
            self.zram_stats.raw_bytes += BASE_PAGE_SIZE;
            self.zram_stats.stored_bytes += stored;
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
    fn rebalance_demote(&mut self, env: &mut Env<'_>, budget: u64) -> Result<u64, ManagerError> {
        if budget == 0 || env.kernel.tiers().is_dram_only() {
            return Ok(0);
        }
        let free_seg = self.free_seg(env)?;
        let tiers = *env.kernel.tiers();
        let segs: Vec<SegmentId> = env
            .kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .collect();
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

    /// Drops every laundry entry held by free-pool `slot` before its
    /// bytes are clobbered by a tier exchange: an in-flight writeback
    /// completes first (the clean copy must land on the store), then the
    /// rescue mapping is removed — laundered data was already written
    /// back at reclaim time, so nothing is lost but the no-I/O rescue
    /// opportunity.
    fn drop_slot_laundry(&mut self, env: &mut Env<'_>, slot: PageNumber) {
        if !self.laundry_slots.holds(slot) {
            return;
        }
        let stale: Vec<(u32, u64)> = self
            .laundry
            .iter()
            .filter(|(_, e)| e.slot.as_u64() == slot.as_u64())
            .map(|(key, _)| *key)
            .collect();
        for key in stale {
            self.stall_until_clean(env, key);
            self.laundry_remove(&key);
        }
    }

    /// Picks a free-pool slot whose frame is DRAM as the promotion
    /// exchange partner — the mirror of [`Self::demotion_target`].
    /// Laundry-free slots are preferred over laundered ones (the
    /// exchange clobbers the slot's bytes, costing rescue entries), and
    /// slots whose writeback is still in flight are skipped outright.
    fn promotion_target(
        &self,
        kernel: &Kernel,
        free_seg: SegmentId,
    ) -> Option<(PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        let seg = kernel.segment(free_seg).ok()?;
        let mut fallback: Option<(PageNumber, FrameId)> = None;
        for (p, e) in seg.resident() {
            if tiers.tier_of(e.frame) != MemTier::Dram {
                continue;
            }
            if self.unclean_slots.holds(p) {
                continue;
            }
            if !self.laundry_slots.holds(p) {
                return Some((p, e.frame));
            }
            if fallback.is_none() {
                fallback = Some((p, e.frame));
            }
        }
        fallback
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
    fn find_promotion_victim(
        &self,
        kernel: &mut Kernel,
    ) -> Option<(SegmentId, PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        let mut referenced: Vec<(SegmentId, PageNumber)> = Vec::new();
        let segs: Vec<SegmentId> = kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .collect();
        for seg in segs {
            let Ok(segment) = kernel.segment(seg) else {
                continue;
            };
            for (p, e) in segment.resident() {
                if e.flags.contains(PageFlags::PINNED) || tiers.tier_of(e.frame) != MemTier::Dram {
                    continue;
                }
                if e.flags.contains(PageFlags::REFERENCED) {
                    referenced.push((seg, p));
                    continue;
                }
                return Some((seg, p, e.frame));
            }
        }
        for (seg, p) in referenced {
            let _ = kernel.modify_page_flags(seg, p, 1, PageFlags::empty(), PageFlags::REFERENCED);
        }
        None
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
        let swapped = match self.promotion_target(env.kernel, free_seg) {
            Some((slot, dst)) => {
                // The exchange clobbers the slot's bytes (the hot page's
                // old frame moves in residually): laundry there drops
                // first, exactly as on the demotion path.
                self.drop_slot_laundry(env, slot);
                self.ring
                    .call(env.kernel, RingOp::MigrateFrame { seg, page, dst })?;
                false
            }
            None => {
                let Some((vseg, vpage, vframe)) = self.find_promotion_victim(env.kernel) else {
                    self.promo_stats.no_target += 1;
                    return Ok(false);
                };
                let mut buf = vec![0u8; BASE_PAGE_SIZE as usize];
                env.kernel.manager_read_page(vseg, vpage, &mut buf)?;
                if from == MemTier::CompressedRam {
                    // The victim lands in the zram tier: account the RLE
                    // work a real compressed-RAM device would do, same as
                    // the demotion ladder.
                    let stored = rle_compress(&buf).len() as u64;
                    self.zram_stats.compressed += 1;
                    self.zram_stats.raw_bytes += BASE_PAGE_SIZE;
                    self.zram_stats.stored_bytes += stored;
                }
                let op = RingOp::MigrateFrame {
                    seg,
                    page,
                    dst: vframe,
                };
                self.ring.call(env.kernel, op)?;
                env.kernel.manager_write_page(vseg, vpage, &buf)?;
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
    fn promote_hot(&mut self, env: &mut Env<'_>) -> Result<u64, ManagerError> {
        if !self.promotion_on() || env.kernel.tiers().is_dram_only() || self.heat.is_empty() {
            return Ok(0);
        }
        // A bankrupt manager is shedding DRAM, not acquiring it: the
        // rebalance ladder runs instead (tick order: demote, then skip
        // promotion until solvent again).
        if env
            .spcm
            .market()
            .and_then(|mk| mk.balance(self.id))
            .is_some_and(|b| b < 0.0)
        {
            return Ok(0);
        }
        let tiers = *env.kernel.tiers();
        let segs: BTreeMap<u32, SegmentId> = env
            .kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .map(|s| (s.as_u32(), s))
            .collect();
        let threshold = self.config.promotion_threshold.max(1);
        let mut stale: Vec<(u32, u64)> = Vec::new();
        let mut cands: Vec<(u64, (u32, u64))> = Vec::new();
        for (&key, &heat) in &self.heat {
            let Some(&seg) = segs.get(&key.0) else {
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
            self.heat.remove(&key);
        }
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cands.truncate(self.config.promotion_budget as usize);
        let mut promoted = 0;
        for (heat, key) in cands {
            let Some(&seg) = segs.get(&key.0) else {
                continue;
            };
            if self.promote_page(env, seg, PageNumber(key.1), heat)? {
                self.heat.remove(&key);
                promoted += 1;
            }
        }
        Ok(promoted)
    }

    /// Resolves `seg`'s writeback destination (file, or lazily created
    /// swap). `None` for unmanaged segments (e.g. the free segment).
    fn writeback_target(&mut self, env: &mut Env<'_>, seg: SegmentId) -> Option<(FileId, bool)> {
        let ms = self.managed.get_mut(&seg.as_u32())?;
        match &mut ms.backing {
            Backing::File(f) => Some((*f, false)),
            Backing::Anonymous { swap, .. } => {
                let f = match swap {
                    Some(f) => *f,
                    None => {
                        let f = env.store.create(&format!("swap-{}", seg.as_u32()), 0);
                        *swap = Some(f);
                        f
                    }
                };
                Some((f, true))
            }
        }
    }

    /// Moves one dirty page's bytes to its backing store (file or swap),
    /// retrying transient device failures with backoff, and registers the
    /// swap copy. Returns the store latency, `None` for an unmanaged
    /// segment. This is the data half shared by both writeback modes;
    /// time accounting is the caller's.
    fn writeback_data(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Option<Micros>, ManagerError> {
        let Some((file, is_anon)) = self.writeback_target(env, seg) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; BASE_PAGE_SIZE as usize];
        env.kernel.manager_read_page(seg, page, &mut buf)?;
        let offset = page.as_u64() * BASE_PAGE_SIZE;
        let latency =
            self.store_io_with_retry(env, true, |store| store.write(file, offset, &buf))?;
        if is_anon {
            if let Some(ManagedSegment {
                backing: Backing::Anonymous { swapped, .. },
            }) = self.managed.get_mut(&seg.as_u32())
            {
                swapped.insert(page.as_u64());
            }
        }
        self.stats.writebacks += 1;
        Ok(Some(latency))
    }

    /// Writes one dirty page back synchronously: the page copy and store
    /// latency are charged inline and billed on the spot.
    fn writeback(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<(), ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page)? else {
            return Ok(());
        };
        let copy = env.kernel.costs().page_copy_4k;
        env.kernel.charge(copy);
        env.kernel.charge(latency);
        self.wb_stats.billed_us += (copy + latency).as_micros();
        self.wb_stats.completed += 1;
        env.spcm.charge_manager_io(self.id, 1);
        Ok(())
    }

    /// Writes one dirty page back asynchronously: the bytes land on the
    /// store now (identical data path, retries and all), but the page
    /// copy + store latency are submitted to the pipeline as disk service
    /// time and billed when the completion fires. Returns the in-flight
    /// ticket, `None` for an unmanaged segment.
    fn writeback_async(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Option<TicketId>, ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page)? else {
            return Ok(None);
        };
        let service = env.kernel.costs().page_copy_4k + latency;
        let ticket = self.wb.submit(env.kernel.now(), service);
        if self.promotion_on() {
            self.wb_keys.insert(ticket, (seg, page));
        }
        self.trace(
            env.kernel,
            EventKind::WritebackIssued {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
                ticket,
            },
        );
        Ok(Some(ticket))
    }

    /// Handles a missing-page fault.
    fn handle_missing(
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
        if let Some(slot) = self.laundry_remove(&key) {
            if env.kernel.segment(free_seg)?.entry(slot).is_some() {
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
                self.stats.laundry_rescues += 1;
                self.stats.migrate_calls += 1;
                // A rescue IS a fault-time re-reference: the page came
                // back before its frame was reused. Heat it if it landed
                // below DRAM.
                self.note_heat(env.kernel, seg, page);
                return Ok(());
            }
        }

        let fill = match self.managed.get(&seg.as_u32()) {
            Some(ms) => match &ms.backing {
                Backing::File(f) => {
                    let size = env.store.size(*f).map_err(epcm_core::KernelError::from)?;
                    if page.as_u64() * BASE_PAGE_SIZE < size {
                        Some((*f, false))
                    } else {
                        None // append beyond EOF: minimal fault
                    }
                }
                Backing::Anonymous { swap, swapped } => {
                    // A page is only registered in `swapped` once a swap
                    // file exists; with no file it is a first touch.
                    match (swap, swapped.contains(&page.as_u64())) {
                        (Some(f), true) => Some((*f, true)),
                        _ => None,
                    }
                }
            },
            None => return Err(ManagerError::NotManaged { segment: seg }),
        };

        match fill {
            Some((file, is_swap)) => {
                env.kernel.charge(env.kernel.costs().manager_alloc);
                let slot = self.take_free_slot(env)?;
                let mut buf = vec![0u8; BASE_PAGE_SIZE as usize];
                let offset = page.as_u64() * BASE_PAGE_SIZE;
                let size = env.store.size(file).map_err(epcm_core::KernelError::from)?;
                let n = (BASE_PAGE_SIZE).min(size.saturating_sub(offset)) as usize;
                if n > 0 {
                    let latency = self.store_io_with_retry(env, false, |store| {
                        store.read(file, offset, &mut buf[..n])
                    })?;
                    env.kernel.charge(latency);
                }
                env.kernel.manager_write_page(free_seg, slot, &buf)?;
                env.kernel.charge(env.kernel.costs().page_copy_4k);
                self.op_migrate_pages(
                    env,
                    free_seg,
                    seg,
                    slot,
                    page,
                    1,
                    PageFlags::RW,
                    PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                )?;
                self.policy.note_resident(seg, page);
                self.stats.migrate_calls += 1;
                if is_swap {
                    self.stats.swap_ins += 1;
                    // The swap copy stays registered: it remains valid
                    // while the page is clean, so a later clean eviction
                    // can drop the frame without I/O and still refill.
                    // A dirty eviction overwrites it.
                } else {
                    self.stats.file_fills += 1;
                }
                // A refill is a re-reference of a previously evicted
                // page; if it landed on a non-DRAM pool frame it is a
                // promotion candidate.
                self.note_heat(env.kernel, seg, page);
                Ok(())
            }
            None => {
                // Minimal fault. For file appends, allocate a 16 KB batch.
                let is_file = matches!(
                    self.managed.get(&seg.as_u32()),
                    Some(ManagedSegment {
                        backing: Backing::File(_)
                    })
                );
                let batch = if is_file {
                    self.config.append_batch.max(1)
                } else {
                    1
                };
                env.kernel.charge(env.kernel.costs().manager_alloc);
                // Appends grow the file segment in whole allocation units
                // ("allocates pages in 16K units" for appends, §3.2).
                if is_file && page.as_u64() + batch > env.kernel.segment(seg)?.size_pages() {
                    env.kernel.resize_segment(seg, page.as_u64() + batch)?;
                }
                let size = env.kernel.segment(seg)?.size_pages();
                // How many consecutive destination pages are allocatable.
                let mut want = 0;
                for i in 0..batch {
                    let p = page.offset(i);
                    if p.as_u64() >= size || env.kernel.segment(seg)?.entry(p).is_some() {
                        break;
                    }
                    want += 1;
                }
                let want = want.max(1);
                self.ensure_free(env, want)?;
                // Prefer a consecutive run of free slots so the batch is a
                // single MigratePages invocation (the 16 KB append unit).
                let run = find_free_run(env.kernel, free_seg, want, &self.laundry_slots)?;
                match run {
                    Some((start, len)) => {
                        self.op_migrate_pages(
                            env,
                            free_seg,
                            seg,
                            start,
                            page,
                            len,
                            PageFlags::RW,
                            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                        )?;
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
                    }
                    None => {
                        let slot = self.take_free_slot(env)?;
                        self.op_migrate_pages(
                            env,
                            free_seg,
                            seg,
                            slot,
                            page,
                            1,
                            PageFlags::RW,
                            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                        )?;
                        self.stats.migrate_calls += 1;
                        self.policy.note_resident(seg, page);
                    }
                }
                self.stats.minimal_faults += 1;
                Ok(())
            }
        }
    }

    /// Handles a protection fault: reference-sampling restore (batched).
    fn handle_protection(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let seg = fault.segment;
        let page = fault.page;
        // If the page itself already permits the access, the denial came
        // from a bound region's protection — nothing the manager should
        // lift; the application gets the error (a SIGSEGV analog).
        if let FaultKind::Protection { flags } = fault.kind {
            if flags.permits(fault.access) {
                return Err(ManagerError::ProtectionDenied { segment: seg, page });
            }
        }
        self.stats.sampling_faults += 1;
        // The faulting page was genuinely referenced.
        self.policy.note_referenced(seg, page);
        // Sampling-window hit: the same reference signal feeds the
        // promotion ladder when the page sits below DRAM.
        self.note_heat(env.kernel, seg, page);
        // Restore protection on a batch of contiguous resident pages to
        // amortise fault cost (§2.3). The resident prefix is scanned
        // before any flags change — the scan reads only presence, which
        // no ModifyPageFlags alters, so pre-scanning is equivalent to
        // the interleaved check-then-modify loop in both ABI modes.
        let size = env.kernel.segment(seg)?.size_pages();
        let batch = self.config.protection_batch.max(1);
        let mut run = 0;
        {
            let segment = env.kernel.segment(seg)?;
            for i in 0..batch {
                let p = page.offset(i);
                if p.as_u64() >= size || segment.entry(p).is_none() {
                    break;
                }
                run += 1;
            }
        }
        for i in 0..run {
            self.op_modify_flags_deferred(
                env,
                seg,
                page.offset(i),
                1,
                PageFlags::RW,
                PageFlags::MANAGER_B,
            )?;
        }
        // With `batched_abi` on this is the crossing collapse: one
        // doorbell drains the whole restore batch.
        Ok(self.ring.flush(env.kernel)?)
    }

    /// Handles a copy-on-write fault: provide a frame; the kernel copies.
    fn handle_cow(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        env.kernel.charge(env.kernel.costs().manager_alloc);
        let slot = self.take_free_slot(env)?;
        self.op_migrate_pages(
            env,
            free_seg,
            fault.segment,
            slot,
            fault.page,
            1,
            PageFlags::RW,
            PageFlags::MANAGER_B,
        )?;
        self.policy.note_resident(fault.segment, fault.page);
        self.stats.cow_faults += 1;
        self.stats.migrate_calls += 1;
        Ok(())
    }

    /// Revokes protection on up to `sample_batch` resident pages to gather
    /// reference information for the clock (the sampling sweep).
    fn sampling_sweep(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        if self.config.sample_batch == 0 {
            return Ok(());
        }
        let mut remaining = self.config.sample_batch;
        if self.managed.is_empty() {
            return Ok(());
        }
        // The sweep resumes at the cursor and runs up to the last managed
        // segment; segments below the cursor wait for the wrapped sweep.
        let start = self.sample_cursor;
        let seg_ids: Vec<u32> = self.managed.range(start.0..).map(|(&s, _)| s).collect();
        for sid in seg_ids {
            if remaining == 0 {
                break;
            }
            let from = if sid == start.0 { start.1 } else { 0 };
            let seg = match env.kernel.segment_ids().find(|s| s.as_u32() == sid) {
                Some(s) => s,
                None => continue,
            };
            let pages: Vec<PageNumber> = env
                .kernel
                .segment(seg)?
                .resident_from(PageNumber(from))
                .filter(|(_, e)| {
                    e.flags.contains(PageFlags::READ) && !e.flags.contains(PageFlags::PINNED)
                })
                .map(|(p, _)| p)
                .take(remaining as usize)
                .collect();
            for p in pages {
                // Deferred onto the ring in batched mode: the page list
                // was snapshotted above, so revoking flags later in the
                // same sweep cannot change which pages are visited.
                self.op_modify_flags_deferred(
                    env,
                    seg,
                    p,
                    1,
                    PageFlags::MANAGER_B,
                    PageFlags::READ | PageFlags::WRITE,
                )?;
                remaining -= 1;
                self.sample_cursor = (sid, p.as_u64() + 1);
            }
        }
        if remaining > 0 {
            self.sample_cursor = (0, 0); // wrap the sweep
        }
        // One doorbell for the whole sweep's revocations.
        Ok(self.ring.flush(env.kernel)?)
    }
}

/// Longest run (up to `want`) of consecutive free-segment slots holding
/// frames, avoiding slots that are keeping laundry data alive. Returns
/// `(start, len)` with `len >= 1`, or `None` if only laundry slots remain.
fn find_free_run(
    kernel: &Kernel,
    free_seg: SegmentId,
    want: u64,
    in_laundry: &SlotCounts,
) -> Result<Option<(PageNumber, u64)>, epcm_core::KernelError> {
    let s = kernel.segment(free_seg)?;
    let mut best: Option<(u64, u64)> = None; // (start, len)
    let mut run_start: Option<u64> = None;
    let mut prev: Option<u64> = None;
    for (p, _) in s.resident() {
        if in_laundry.holds(p) {
            run_start = None;
            prev = None;
            continue;
        }
        let p = p.as_u64();
        match (run_start, prev) {
            (Some(start), Some(q)) if p == q + 1 => {
                let len = p - start + 1;
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((start, len));
                }
                if len >= want {
                    return Ok(Some((PageNumber(start), want)));
                }
            }
            _ => {
                run_start = Some(p);
                if best.is_none() {
                    best = Some((p, 1));
                }
            }
        }
        prev = Some(p);
    }
    Ok(best.map(|(start, len)| (PageNumber(start), len.min(want))))
}

/// First page slot in `seg` holding no frame.
fn first_empty_slot(kernel: &Kernel, seg: SegmentId) -> Result<PageNumber, epcm_core::KernelError> {
    let s = kernel.segment(seg)?;
    let mut expected = 0u64;
    for (p, _) in s.resident() {
        if p.as_u64() != expected {
            return Ok(PageNumber(expected));
        }
        expected += 1;
    }
    Ok(PageNumber(expected))
}

impl SegmentManager for DefaultSegmentManager {
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
        let kind = env.kernel.segment(segment)?.kind();
        let backing = match kind {
            SegmentKind::CachedFile(f) => Backing::File(f),
            _ => Backing::Anonymous {
                swap: None,
                swapped: BTreeSet::new(),
            },
        };
        env.kernel.set_segment_manager(segment, self.id)?;
        self.managed
            .insert(segment.as_u32(), ManagedSegment { backing });
        // Seed policy with already-resident pages (ownership assumption of
        // an existing segment, §2.2).
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
        // Completions due by now free their window slots and unclean
        // marks before the fault is dispatched.
        self.drain_writebacks(env);
        self.stats.faults += 1;
        match fault.kind {
            FaultKind::Missing => self.handle_missing(env, fault),
            FaultKind::Protection { .. } => self.handle_protection(env, fault),
            FaultKind::CopyOnWrite { .. } => self.handle_cow(env, fault),
        }
    }

    fn reclaim(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        // Forced return to the SPCM: first make frames free, then hand the
        // free pool's frames back.
        let free_seg = self.free_seg(env)?;
        let have = self.free_count(env.kernel);
        if have < count {
            self.reclaim_into_pool(env, count - have)?;
        }
        let give: Vec<PageNumber> = env
            .kernel
            .segment(free_seg)?
            .resident()
            .map(|(p, _)| p)
            .take(count as usize)
            .collect();
        // Frames leaving our pool invalidate any laundry they hold; an
        // in-flight writeback must finish before its frame departs.
        let leaving: BTreeSet<u64> = give.iter().map(|p| p.as_u64()).collect();
        let invalidated: Vec<(u32, u64)> = self
            .laundry
            .iter()
            .filter(|(_, e)| leaving.contains(&e.slot.as_u64()))
            .map(|(key, _)| *key)
            .collect();
        for key in invalidated {
            self.stall_until_clean(env, key);
            self.laundry_remove(&key);
        }
        env.spcm
            .return_frames(env.kernel, self.id, free_seg, &give)?;
        self.trace(
            env.kernel,
            EventKind::Reclaim {
                manager: self.id.0,
                frames: give.len() as u64,
                forced: true,
            },
        );
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
        let is_file = matches!(
            self.managed.get(&segment.as_u32()),
            Some(ManagedSegment {
                backing: Backing::File(_)
            })
        );
        for (p, flags) in pages {
            // File data must survive the close; anonymous data dies with
            // the segment (no writeback).
            if is_file && flags.contains(PageFlags::DIRTY) {
                self.writeback(env, segment, p)?;
            }
            let slot = first_empty_slot(env.kernel, free_seg)?;
            self.op_migrate_pages(
                env,
                segment,
                free_seg,
                p,
                slot,
                1,
                PageFlags::RW,
                PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
            )?;
            self.policy.note_removed(segment, p);
            self.laundry_remove(&(segment.as_u32(), p.as_u64()));
        }
        self.managed.remove(&segment.as_u32());
        Ok(())
    }

    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        self.drain_writebacks(env);
        if self.free_count(env.kernel) < self.config.low_water {
            // Opportunistic refill; ignore refusal (we reclaim on demand).
            let _ = self.ensure_free(env, self.config.target_free);
        }
        // In the red on a tiered machine: demote cold DRAM pages to
        // cheaper tiers rather than waiting for the SPCM to seize them.
        if !env.kernel.tiers().is_dram_only()
            && env
                .spcm
                .market()
                .and_then(|mk| mk.balance(self.id))
                .is_some_and(|b| b < 0.0)
        {
            let _ = self.rebalance_demote(env, self.config.demote_batch);
        }
        // The symmetric pass: top-K hot pages earn DRAM back each tick.
        self.promote_hot(env)?;
        self.sampling_sweep(env)
    }

    fn free_frames(&self, kernel: &Kernel) -> u64 {
        self.free_count(kernel)
    }

    fn set_tracer(&mut self, tracer: SharedTracer) {
        self.wb.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        let id = self.id.0;
        let s = &self.stats;
        m.set(&format!("manager.{id}.faults"), s.faults);
        m.set(&format!("manager.{id}.minimal_faults"), s.minimal_faults);
        m.set(&format!("manager.{id}.file_fills"), s.file_fills);
        m.set(&format!("manager.{id}.swap_ins"), s.swap_ins);
        m.set(&format!("manager.{id}.writebacks"), s.writebacks);
        m.set(&format!("manager.{id}.reclaimed"), s.reclaimed);
        m.set(&format!("manager.{id}.laundry_rescues"), s.laundry_rescues);
        m.set(&format!("manager.{id}.sampling_faults"), s.sampling_faults);
        m.set(&format!("manager.{id}.cow_faults"), s.cow_faults);
        m.set(&format!("manager.{id}.append_batches"), s.append_batches);
        m.set(&format!("manager.{id}.migrate_calls"), s.migrate_calls);
        m.set(&format!("manager.{id}.demotions"), s.demotions);
        m.set(
            &format!("manager.{id}.zram_compressed"),
            self.zram_stats.compressed,
        );
        m.set(
            &format!("manager.{id}.zram_stored_bytes"),
            self.zram_stats.stored_bytes,
        );
        let io = &self.io_stats;
        m.set(&format!("manager.{id}.io_attempts"), io.attempts);
        m.set(&format!("manager.{id}.io_retries"), io.retries);
        m.set(&format!("manager.{id}.io_gave_up"), io.gave_up);
        m.set(
            &format!("manager.{id}.quarantined_pages"),
            io.quarantined_pages,
        );
        let wb = &self.wb_stats;
        m.set(
            &format!("manager.{id}.writeback.inflight"),
            self.wb.in_flight() as u64,
        );
        m.set(
            &format!("manager.{id}.writeback.pending"),
            self.wb.queued() as u64,
        );
        m.set(&format!("manager.{id}.writeback.stall"), wb.stalls);
        m.set(&format!("manager.{id}.writeback.stall_us"), wb.stall_us);
        m.set(&format!("manager.{id}.writeback.completed"), wb.completed);
        m.set(&format!("manager.{id}.writeback.billed_us"), wb.billed_us);
        m.set(&format!("manager.{id}.laundry_dropped"), wb.laundry_dropped);
        m.set(
            &format!("manager.{id}.ring.submitted"),
            self.ring.submitted(),
        );
        // Promotion keys are opt-in: off-by-
        // default runs export byte-identical documents.
        if self.config.promotion_budget > 0 {
            let p = &self.promo_stats;
            m.set(&format!("manager.{id}.promotions.count"), s.promotions);
            m.set(
                &format!("manager.{id}.promotions.heat_events"),
                p.heat_events,
            );
            m.set(&format!("manager.{id}.promotions.to_free"), p.to_free);
            m.set(&format!("manager.{id}.promotions.swapped"), p.swapped);
            m.set(&format!("manager.{id}.promotions.no_target"), p.no_target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::AccessKind;

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

    #[test]
    fn laundry_reinsert_tombstones_stale_order_entry() {
        // Regression: re-inserting over an existing key used to leave a
        // stale entry in the order queue that the free-slot path popped
        // and mis-treated as live, dropping the newer mapping out of
        // FIFO order.
        let mut mgr = DefaultSegmentManager::server();
        let a = (1u32, 0u64);
        let b = (2u32, 5u64);
        mgr.laundry_insert(a, PageNumber(10));
        mgr.laundry_insert(b, PageNumber(11));
        // `a` rescued, re-dirtied, reclaimed again into a new slot:
        mgr.laundry_insert(a, PageNumber(12));
        assert!(!mgr.laundry_slots.holds(PageNumber(10)));
        assert!(mgr.laundry_slots.holds(PageNumber(11)));
        assert!(mgr.laundry_slots.holds(PageNumber(12)));
        // The stale front entry for `a` is a tombstone; the oldest live
        // mapping is `b`, then `a`'s re-insert.
        assert_eq!(mgr.oldest_live_laundry(), Some(b));
        mgr.laundry_order.pop_front();
        assert_eq!(mgr.laundry_remove(&b), Some(PageNumber(11)));
        assert_eq!(mgr.oldest_live_laundry(), Some(a));
        mgr.laundry_order.pop_front();
        assert_eq!(mgr.laundry_remove(&a), Some(PageNumber(12)));
        assert_eq!(mgr.oldest_live_laundry(), None);
        assert!(mgr.laundry_slots.0.iter().all(|&n| n == 0));
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
        let (mut m, id) = machine_with(config, 24);
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
                            let count = |counts: &SlotCounts| counts.0.get(slot).copied();
                            let slot = PageNumber(slot as u64);
                            let laundry = d.laundry.values().filter(|e| e.slot == slot).count();
                            let unclean = d.unclean.values().filter(|e| e.1 == slot).count();
                            assert_eq!(count(&d.laundry_slots).unwrap_or(0) as usize, laundry);
                            assert_eq!(count(&d.unclean_slots).unwrap_or(0) as usize, unclean);
                        }
                        Ok((!d.laundry.is_empty(), !d.unclean.is_empty()))
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
