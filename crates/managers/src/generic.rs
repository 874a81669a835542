//! The generic segment manager: the one manager engine.
//!
//! §2.2: "An application segment manager can be 'specialized' from a
//! generic or standard segment manager using inheritance in an
//! object-oriented implementation. ... The page replacement selection
//! routines and page fill routines can be easily specialized to particular
//! application requirements." In Rust the specialisation points are a
//! [`Specialization`] trait plugged into [`GenericManager`]: frame
//! placement constraints, page fill, and eviction disposition are the
//! application-specific hooks. Everything else is the engine, inherited
//! by every manager, the default one included
//! ([`DefaultSegmentManager`](crate::DefaultSegmentManager) is
//! `GenericManager<Ucds>`):
//!
//! * a free-page segment refilled from the SPCM, with a clock replacement
//!   policy that reclaims into it when the SPCM refuses;
//! * reference sampling: a tick-time sweep revokes protection and a
//!   protection fault restores it on a batch of contiguous pages (§2.3);
//! * on tiered machines, a demotion stage in the clock and at tick time
//!   when the market bill is in the red, and a hot-page promotion ladder;
//! * for *store-backed* pages — a spec's fill says [`Fill::File`], or its
//!   disposition says [`Disposition::File`] or [`Disposition::Swap`] —
//!   the store mechanisms: reads and writes retried with backoff on the
//!   virtual clock, dirty pages quarantined in place when their store is
//!   dead, evicted frames kept rescuable in the pool (the laundry), and
//!   optionally an asynchronous writeback pipeline.
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
//!
//! The engine never asks which spec it runs: where two managers differ
//! only by a number (refill sizes, the protection-restore batch), that
//! number is a [`DefaultManagerConfig`] field with a per-constructor
//! default.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use epcm_core::fault::{FaultEvent, FaultKind};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{RingOp, RingPort, DEFAULT_RING_CAPACITY};
use epcm_core::segment::{PageEntry, Segment};
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_sim::clock::Micros;
use epcm_sim::disk::{Block, FileId, FileStore, FileStoreError};
use epcm_sim::writeback::{TicketId, WritebackPipeline};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::compress::{rle_compress, CompressStats};
use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::policy::{ClockPolicy, Probe, ReplacementPolicy};
use crate::spcm::PhysConstraint;

/// What a specialisation's fill hook produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// Hand the frame over as-is (zero for fresh frames): the minimal
    /// fault.
    Minimal,
    /// The block holds the page's contents; copy them in before
    /// migration.
    Filled,
    /// Store-backed: the page is block `page` of this file. The engine
    /// reads it with retry. A block past the end of the file is an
    /// append: a minimal fault that grows the segment and hands over
    /// [`DefaultManagerConfig::append_batch`] pages in one `MigratePages`
    /// (the 16 KB append unit, §3.2).
    File(FileId),
}

/// Where an evicted page's data goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A dirty page goes to [`Specialization::write_back`] (conventional).
    WriteBack,
    /// A dirty page is dropped — it can be discarded or regenerated more
    /// cheaply than paged (the paper's index-regeneration and
    /// garbage-page cases).
    Discard,
    /// Store-backed and persistent: a dirty page is written to block
    /// `page` of this file, at eviction and at segment close.
    File(FileId),
    /// Store-backed scratch: a dirty page is written to the engine's swap
    /// file for its segment and read back from there at its next fault.
    /// The data dies with the segment (no writeback at close).
    Swap,
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

    /// Produces the page's contents into `block` (4 KB, zero; writing it
    /// through [`Block::make_mut`] gives it a page of its own), or names
    /// the file block the engine should read them from. Called at a
    /// missing-page fault before a frame is taken, unless the page has a
    /// swap copy (the engine reads that itself). Default: minimal fault.
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for store failures.
    fn fill(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        block: &mut Block,
    ) -> Result<Fill, ManagerError> {
        let _ = (env, seg, page, block);
        Ok(Fill::Minimal)
    }

    /// Where the data of an evicted (or, at segment close, a dirty) page
    /// goes. Also asked for clean victims: only store-backed pages stay
    /// rescuable in the pool. Default: write back.
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

/// A managed segment and, once a page of it was swapped, its swap file.
#[derive(Debug, Clone)]
struct ManagedSegment {
    id: SegmentId,
    /// Created lazily at the first [`Disposition::Swap`] writeback.
    swap: Option<FileId>,
    /// Pages with a valid swap copy: bit `p % 64` of word `p / 64`.
    swapped: Vec<u64>,
}

impl ManagedSegment {
    fn new(id: SegmentId) -> Self {
        ManagedSegment {
            id,
            swap: None,
            swapped: Vec::new(),
        }
    }

    /// Records that `page` has a valid swap copy.
    fn mark_swapped(&mut self, page: PageNumber) {
        let i = usize::try_from(page.as_u64()).expect("swapped pages fit the address space");
        if i / 64 >= self.swapped.len() {
            self.swapped.resize(i / 64 + 1, 0);
        }
        self.swapped[i / 64] |= 1 << (i % 64);
    }

    /// The swap file holding a valid copy of `page`, if any. A page is
    /// only marked once a swap file exists.
    fn swap_copy(&self, page: PageNumber) -> Option<FileId> {
        let i = usize::try_from(page.as_u64()).ok()?;
        let word = self.swapped.get(i / 64)?;
        self.swap.filter(|_| word >> (i % 64) & 1 == 1)
    }
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

/// A manager's counters, exposed for Table 3 and the extended analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultManagerStats {
    /// Faults handled, all kinds.
    pub faults: u64,
    /// Minimal faults (frame handed over with no fill).
    pub minimal_faults: u64,
    /// Pages filled by the specialisation's fill hook ([`Fill::Filled`]).
    pub fills: u64,
    /// Pages filled from a backing file.
    pub file_fills: u64,
    /// Pages filled from swap.
    pub swap_ins: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Dirty pages dropped at eviction ([`Disposition::Discard`]).
    pub discards: u64,
    /// Faults whose placement constraint could not be honoured.
    pub constraint_misses: u64,
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

/// Tuning knobs for a manager. [`Default`] is the default manager's
/// setting; [`GenericManager::new`] starts from the application
/// managers' (a 32-frame pool refilled 32 at a time below 16, one page
/// re-enabled per protection fault, no demotion).
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

impl DefaultManagerConfig {
    /// The application managers' setting.
    pub(crate) fn generic() -> Self {
        DefaultManagerConfig {
            target_free: 32,
            low_water: 16,
            refill_batch: 32,
            protection_batch: 1,
            demote_batch: 0,
            ..DefaultManagerConfig::default()
        }
    }
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

/// The specialisable manager engine.
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
pub struct GenericManager<S, P = ClockPolicy> {
    id: ManagerId,
    mode: ManagerMode,
    spec: S,
    config: DefaultManagerConfig,
    free_seg: Option<SegmentId>,
    managed: BTreeMap<u32, ManagedSegment>,
    policy: P,
    /// Reclaimed store-backed pages still rescuable from the free pool,
    /// and which of them have a writeback in flight.
    laundry: Laundry,
    /// Cursor for the sampling sweep.
    sample_cursor: (u32, u64),
    /// Where the promotion pass's victim search resumes. Every managed
    /// page below this key was scanned earlier in the pass and found no
    /// cold DRAM victim; only the pages in `promo_behind` can have
    /// become one since.
    promo_resume: (u32, u64),
    /// Pages this promotion pass moved onto DRAM below `promo_resume`,
    /// ascending.
    promo_behind: Vec<(u32, u64)>,
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
    wb_stats: WritebackStats,
    /// This manager's end of the kernel ABI; every page operation rides
    /// it.
    ring: RingPort,
    /// Access heat per non-DRAM-resident page, fed by fault-time
    /// re-references, sampling-window hits and writeback completions.
    /// Empty (never written) with the promotion ladder off. Entries for
    /// pages that leave residency or reach DRAM on their own are pruned
    /// lazily during the tick scan.
    heat: HeatTable,
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
struct SlotCounts {
    counts: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set exactly when `counts[i] > 0`:
    /// the word view the free-slot pickers mask the pool's residency
    /// bitmap with.
    held: Vec<u64>,
}

impl SlotCounts {
    fn hold(&mut self, slot: PageNumber) {
        let i = usize::try_from(slot.as_u64()).expect("free-pool slots fit the address space");
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
            self.held.resize(i / 64 + 1, 0);
        }
        self.counts[i] += 1;
        self.held[i / 64] |= 1 << (i % 64);
    }

    fn release(&mut self, slot: PageNumber) {
        let Ok(i) = usize::try_from(slot.as_u64()) else {
            return;
        };
        if let Some(n) = self.counts.get_mut(i) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.held[i / 64] &= !(1 << (i % 64));
            }
        }
    }

    fn holds(&self, slot: PageNumber) -> bool {
        usize::try_from(slot.as_u64())
            .ok()
            .and_then(|i| self.counts.get(i))
            .is_some_and(|&n| n > 0)
    }

    /// Word `w` of the held-slot bitmap.
    fn held_word(&self, w: usize) -> u64 {
        self.held.get(w).copied().unwrap_or(0)
    }
}

/// Access heat per page beside the list of keys whose heat is non-zero,
/// so the tick walks only heated pages. A slot's top bit records that
/// its key is in `live`; zeroing a key's heat leaves it listed until
/// [`Self::prune`].
#[derive(Debug, Default)]
struct HeatTable {
    rows: PageRows<u64>,
    live: Vec<(u32, u64)>,
}

const LISTED: u64 = 1 << 63;

impl HeatTable {
    /// The heat of `key`, 0 if none.
    fn get(&self, key: (u32, u64)) -> u64 {
        self.rows.get(key) & !LISTED
    }

    /// Adds one unit of heat to `key`.
    fn bump(&mut self, key: (u32, u64)) {
        let slot = self.rows.slot_mut(key);
        let listed = *slot & LISTED != 0;
        *slot = (*slot + 1) | LISTED;
        if !listed {
            self.live.push(key);
        }
    }

    /// Zeroes `key`'s heat.
    fn clear(&mut self, key: (u32, u64)) {
        if self.get(key) != 0 {
            *self.rows.slot_mut(key) = LISTED;
        }
    }

    /// Unlists every key whose heat is zero, including the keys of a
    /// segment whose row [`Self::segment_closed`] freed.
    fn prune(&mut self) {
        let rows = &mut self.rows;
        self.live.retain(|&key| match rows.get_mut(key) {
            Some(slot) if *slot == LISTED => {
                *slot = 0;
                false
            }
            Some(_) => true,
            None => false,
        });
    }

    /// Frees closed segment `seg`'s row: no page of it heats again.
    fn segment_closed(&mut self, seg: u32) {
        self.rows.free_row(seg);
    }

    /// Whether no key has heat. Exact between ticks, which end with a
    /// prune.
    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// An entry type with one value that marks an empty slot, so a dense
/// table of it needs no `Option` tag.
trait Vacant: Copy + PartialEq {
    const VACANT: Self;
}

impl Vacant for u64 {
    const VACANT: Self = 0;
}

/// Dense per-page storage, indexed by segment id and then page number,
/// as the kernel's page tables are (segment ids are never reused). Rows
/// grow on demand and read [`Vacant::VACANT`] past their end. A row's
/// storage lives until its owner frees it: freeing rows as they empty
/// made the in-flight table reallocate and refill its row after every
/// writeback drain, so the owners free only the rows of closed segments.
#[derive(Debug)]
struct PageRows<T> {
    rows: Vec<Vec<T>>,
}

impl<T> Default for PageRows<T> {
    fn default() -> Self {
        PageRows { rows: Vec::new() }
    }
}

impl<T: Vacant> PageRows<T> {
    fn get(&self, (seg, page): (u32, u64)) -> T {
        self.rows
            .get(seg as usize)
            .and_then(|row| row.get(usize::try_from(page).ok()?))
            .copied()
            .unwrap_or(T::VACANT)
    }

    /// `key`'s slot, if its row reaches it.
    fn get_mut(&mut self, (seg, page): (u32, u64)) -> Option<&mut T> {
        let row = self.rows.get_mut(seg as usize)?;
        row.get_mut(usize::try_from(page).ok()?)
    }

    /// `key`'s slot, growing the table to reach it.
    fn slot_mut(&mut self, (seg, page): (u32, u64)) -> &mut T {
        let s = seg as usize;
        if s >= self.rows.len() {
            self.rows.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.rows[s];
        let p = usize::try_from(page).expect("mapped pages fit the address space");
        if p >= row.len() {
            row.resize(p + 1, T::VACANT);
        }
        &mut row[p]
    }

    /// Releases `seg`'s row; its slots read vacant again.
    fn free_row(&mut self, seg: u32) {
        if let Some(row) = self.rows.get_mut(seg as usize) {
            *row = Vec::new();
        }
    }

    /// The segments whose rows hold storage.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        self.rows.iter().filter(|row| row.capacity() > 0).count()
    }
}

/// A map from `(segment, page)` keys to small entries on [`PageRows`]. A
/// slot holding [`Vacant::VACANT`] is empty.
#[derive(Debug)]
struct PageMap<T> {
    rows: PageRows<T>,
    len: usize,
}

impl<T> Default for PageMap<T> {
    fn default() -> Self {
        PageMap {
            rows: PageRows::default(),
            len: 0,
        }
    }
}

impl<T: Vacant> PageMap<T> {
    fn get(&self, key: (u32, u64)) -> Option<T> {
        let entry = self.rows.get(key);
        (entry != T::VACANT).then_some(entry)
    }

    /// Sets `key`'s entry, returning the one it replaced.
    fn insert(&mut self, key: (u32, u64), value: T) -> Option<T> {
        debug_assert!(value != T::VACANT, "a vacant entry cannot be inserted");
        let old = std::mem::replace(self.rows.slot_mut(key), value);
        if old == T::VACANT {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    fn remove(&mut self, key: (u32, u64)) -> Option<T> {
        let old = std::mem::replace(self.rows.get_mut(key)?, T::VACANT);
        if old == T::VACANT {
            return None;
        }
        self.len -= 1;
        Some(old)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The entries of `seg`'s row.
    fn row(&self, seg: u32) -> impl Iterator<Item = T> + '_ {
        let row = self.rows.rows.get(seg as usize);
        row.into_iter()
            .flatten()
            .copied()
            .filter(|&e| e != T::VACANT)
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
    fn live_in(&self, map: &PageMap<LaundrySlot>) -> Option<LaundrySlot> {
        map.get(self.key()).filter(|e| e.seq == self.seq)
    }
}

/// The laundry: reclaimed store-backed pages whose frames still sit,
/// data intact, in the free segment, so that a fault can rescue them
/// without I/O, and which of them still have a writeback in flight.
#[derive(Debug, Default)]
struct Laundry {
    /// `(segment, page) ->` the free-segment slot holding its data.
    map: PageMap<LaundrySlot>,
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
    unclean: PageMap<InFlight>,
    /// Reverse index of `unclean` for completion-time lookup.
    unclean_by_ticket: BTreeMap<TicketId, (u32, u64)>,
    /// Per-slot count of `unclean` entries, so the tier-exchange partner
    /// pickers skip in-flight slots in O(1).
    unclean_slots: SlotCounts,
    /// Closed segments that still have laundry, with the number of
    /// entries left. The last one's removal frees the segment's rows.
    closed: BTreeMap<u32, usize>,
}

impl Laundry {
    /// Records `key`'s data surviving in free-segment `slot`. Inserting
    /// over an existing key releases the old slot and gives the key a
    /// new sequence number, turning its old `order` entry into a
    /// tombstone.
    fn insert(&mut self, key: (u32, u64), slot: PageNumber) {
        debug_assert!(
            !self.closed.contains_key(&key.0),
            "laundry of a closed segment"
        );
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
    fn remove(&mut self, key: (u32, u64)) -> Option<PageNumber> {
        let slot = slot_page(self.map.remove(key)?.slot);
        self.slots.release(slot);
        if let Some(ticket) = self.clear_unclean(key) {
            self.unclean_by_ticket.remove(&ticket);
        }
        if let Some(left) = self.closed.get_mut(&key.0) {
            *left -= 1;
            if *left == 0 {
                self.closed.remove(&key.0);
                self.free_rows(key.0);
            }
        }
        Some(slot)
    }

    /// Notes that segment `seg` closed: its laundry outlives it, and its
    /// rows go once the last entry does. A closed segment gains no
    /// laundry.
    fn segment_closed(&mut self, seg: u32) {
        match self.map.row(seg).count() {
            0 => self.free_rows(seg),
            left => {
                self.closed.insert(seg, left);
            }
        }
    }

    fn free_rows(&mut self, seg: u32) {
        debug_assert_eq!(
            self.unclean.row(seg).count(),
            0,
            "in flight but not laundry"
        );
        self.map.rows.free_row(seg);
        self.unclean.rows.free_row(seg);
    }

    /// Clears `key`'s in-flight writeback mark, returning its ticket.
    /// The reverse index is the caller's to keep.
    fn clear_unclean(&mut self, key: (u32, u64)) -> Option<TicketId> {
        let e = self.unclean.remove(key)?;
        self.unclean_slots.release(slot_page(e.slot));
        Some(e.ticket)
    }

    /// Pops the oldest live key off the order queue, discarding the
    /// tombstones in front of it. The key keeps its entry in the map
    /// until the caller removes it, which it must do before the next
    /// [`Self::keys_in`]: that walks the queue, so it relies on every
    /// mapped key having its live entry there.
    fn pop_oldest(&mut self) -> Option<(u32, u64)> {
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
    fn mark_unclean(&mut self, key: (u32, u64), ticket: TicketId, slot: PageNumber) {
        let entry = InFlight {
            ticket,
            slot: slot_u32(slot),
        };
        if let Some(old) = self.unclean.insert(key, entry) {
            self.unclean_by_ticket.remove(&old.ticket);
            self.unclean_slots.release(slot_page(old.slot));
        }
        self.unclean_slots.hold(slot);
        self.unclean_by_ticket.insert(ticket, key);
    }

    /// The ticket of `key`'s in-flight writeback, if any.
    fn unclean_ticket(&self, key: (u32, u64)) -> Option<TicketId> {
        self.unclean.get(key).map(|e| e.ticket)
    }

    /// Clears the mark of the writeback `ticket`, which completed.
    fn cleaned(&mut self, ticket: TicketId) {
        if let Some(key) = self.unclean_by_ticket.remove(&ticket) {
            self.clear_unclean(key);
        }
    }

    /// The keys whose data sits in one of the free-pool `slots`
    /// (ascending), in ascending key order.
    fn keys_in(&self, slots: &[PageNumber]) -> Vec<(u32, u64)> {
        if !slots.iter().any(|&slot| self.slots.holds(slot)) {
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

impl<S: Specialization> GenericManager<S> {
    /// Creates a manager around `spec` with a clock replacement policy and
    /// the application managers' tuning.
    pub fn new(spec: S, mode: ManagerMode) -> Self {
        GenericManager::from_parts(
            spec,
            mode,
            DefaultManagerConfig::generic(),
            ClockPolicy::new(),
        )
    }
}

impl<S: Specialization, P: ReplacementPolicy> GenericManager<S, P> {
    /// Overrides the replacement policy — the other §2.2 specialisation
    /// point.
    pub fn with_policy(spec: S, mode: ManagerMode, policy: P) -> Self {
        GenericManager::from_parts(spec, mode, DefaultManagerConfig::generic(), policy)
    }

    /// Full control over specialisation, mode, tuning and policy.
    pub(crate) fn from_parts(
        spec: S,
        mode: ManagerMode,
        config: DefaultManagerConfig,
        policy: P,
    ) -> Self {
        let wb = WritebackPipeline::new(config.writeback_servers, config.writeback_window);
        let ring = RingPort::with_capacity(config.ring_capacity);
        GenericManager {
            id: ManagerId(u32::MAX),
            mode,
            spec,
            config,
            free_seg: None,
            managed: BTreeMap::new(),
            policy,
            laundry: Laundry::default(),
            sample_cursor: (0, 0),
            promo_resume: (0, 0),
            promo_behind: Vec::new(),
            quarantined: BTreeSet::new(),
            stats: DefaultManagerStats::default(),
            io_stats: IoRetryStats::default(),
            zram_stats: CompressStats::default(),
            wb,
            wb_stats: WritebackStats::default(),
            ring,
            heat: HeatTable::default(),
            wb_keys: BTreeMap::new(),
            promo_stats: PromotionStats::default(),
            tracer: None,
        }
    }

    /// The specialisation, for reading its state.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Mutable specialisation access (application-specific commands).
    pub fn spec_mut(&mut self) -> &mut S {
        &mut self.spec
    }

    /// Evicts up to `count` pages into the free pool (public so
    /// applications can shrink their own footprint proactively, e.g.
    /// before yielding memory to the market). Returns how many went.
    ///
    /// # Errors
    ///
    /// Kernel or store failures during eviction.
    pub fn shrink(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        self.reclaim_into_pool(env, count)
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
        self.heat.bump((seg.as_u32(), page.as_u64()));
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
            let placed = |kernel: &Kernel, laundry: &SlotCounts| -> Result<_, ManagerError> {
                let tiers = *kernel.tiers();
                let pool = kernel.segment(free_seg)?;
                Ok(clean_slots(pool, laundry).find(|&p| {
                    pool.entry(p)
                        .is_some_and(|e| constraint.admits(e.frame, &tiers))
                }))
            };
            if let Some(p) = placed(env.kernel, &self.laundry.slots)? {
                return Ok(p);
            }
            let _ = env.spcm.request_frames(
                env.kernel,
                self.id,
                free_seg,
                self.config.refill_batch,
                constraint,
            )?;
            if let Some(p) = placed(env.kernel, &self.laundry.slots)? {
                return Ok(p);
            }
            self.stats.constraint_misses += 1;
        }
        self.ensure_free(env, 1)?;
        let pick = clean_slots(env.kernel.segment(free_seg)?, &self.laundry.slots).next();
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

    /// If `key`'s laundry writeback is still in flight, waits (charging
    /// the kernel clock) until its disk reservation completes, then
    /// drains due completions. Callers invoke this before reusing or
    /// clobbering a promised-free frame.
    fn stall_until_clean(&mut self, env: &mut Env<'_>, key: (u32, u64)) {
        if let Some(ticket) = self.laundry.unclean_ticket(key) {
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
        self.laundry.cleaned(ticket);
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
        let mut ticket = None;
        if entry.flags.contains(PageFlags::DIRTY) {
            match disposition {
                Disposition::Discard => self.stats.discards += 1,
                Disposition::WriteBack => self.spec_write_back(env, seg, page)?,
                Disposition::File(_) | Disposition::Swap => {
                    let before = env.kernel.now();
                    let outcome = if self.config.async_writeback {
                        self.writeback_async(env, seg, page, disposition)
                    } else {
                        self.writeback(env, seg, page, disposition).map(|()| None)
                    };
                    match outcome {
                        Ok(t) => ticket = t,
                        Err(ManagerError::Store(FileStoreError::Io { .. })) => {
                            self.quarantine_in_place(env, seg, page)?;
                            return Ok(false);
                        }
                        Err(other) => return Err(other),
                    }
                    // Fault-path time spent on this dirty victim: copy +
                    // latency inline in sync mode; only injected-fault
                    // retry backoff in async mode (the disk time bills at
                    // completion instead).
                    self.wb_stats.dirty_victim_us +=
                        env.kernel.now().duration_since(before).as_micros();
                }
            }
        }
        // Destination: first empty slot in the free segment.
        let slot = env.kernel.segment(free_seg)?.first_vacant();
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
        if matches!(disposition, Disposition::File(_) | Disposition::Swap) {
            let key = (seg.as_u32(), page.as_u64());
            self.laundry.insert(key, slot);
            if let Some(t) = ticket {
                self.laundry.mark_unclean(key, t, slot);
            }
        }
        self.stats.reclaimed += 1;
        Ok(true)
    }

    /// Hands a dirty page to the spec's own [`Specialization::write_back`]
    /// (charging the 4 KB copy out of the frame).
    fn spec_write_back(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<(), ManagerError> {
        let block = env.kernel.manager_read_block(seg, page)?;
        env.kernel.charge(env.kernel.costs().page_copy_4k);
        self.spec.write_back(env, seg, page, block.as_slice())?;
        self.stats.writebacks += 1;
        Ok(())
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
        // The pool is mostly vacant slots: walk its residency bitmap.
        for p in set_bits(seg.resident_bits().iter().copied()) {
            let Some(e) = seg.entry(p) else {
                continue;
            };
            let tier = tiers.tier_of(e.frame);
            let Some(rank) = rank(tier) else {
                continue;
            };
            if self.laundry.unclean_slots.holds(p) {
                continue;
            }
            let score = u32::from(self.laundry.slots.holds(p)) * 2 + rank;
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
    fn rebalance_demote(&mut self, env: &mut Env<'_>, budget: u64) -> Result<u64, ManagerError> {
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

    /// Drops every laundry entry held by the free-pool `slots` (in
    /// ascending order) before those frames leave the pool or have their
    /// bytes clobbered by a tier exchange: an in-flight writeback
    /// completes first (the clean copy must land on the store), then the
    /// rescue mapping is removed — laundered data was already written
    /// back at reclaim time, so nothing is lost but the no-I/O rescue
    /// opportunity.
    fn drop_laundry(&mut self, env: &mut Env<'_>, slots: &[PageNumber]) {
        for key in self.laundry.keys_in(slots) {
            self.stall_until_clean(env, key);
            self.laundry.remove(key);
        }
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

    /// Moves one dirty page's bytes to its store (file or swap), retrying
    /// transient device failures with backoff, and registers the swap
    /// copy. Returns the store latency, `None` for an unmanaged segment.
    /// This is the data half shared by both writeback modes; time
    /// accounting is the caller's.
    fn writeback_data(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        to: Disposition,
    ) -> Result<Option<Micros>, ManagerError> {
        let Some((file, is_swap)) = self.store_target(env, seg, to) else {
            return Ok(None);
        };
        let block = env.kernel.manager_read_block(seg, page)?;
        let latency = self.store_io_with_retry(env, true, |store| {
            store.write_block(file, page.as_u64(), &block)
        })?;
        if is_swap {
            if let Some(ms) = self.managed.get_mut(&seg.as_u32()) {
                ms.mark_swapped(page);
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
        to: Disposition,
    ) -> Result<(), ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page, to)? else {
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
        to: Disposition,
    ) -> Result<Option<TicketId>, ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page, to)? else {
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

    /// Handles a missing-page fault: a laundry rescue, else a swap-in,
    /// else what the spec's fill hook says.
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
        if let Some(slot) = self.laundry.remove(key) {
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

        let Some(ms) = self.managed.get(&seg.as_u32()) else {
            return Err(ManagerError::NotManaged { segment: seg });
        };
        let swap_copy = ms.swap_copy(page);
        env.kernel.charge(env.kernel.costs().manager_alloc);
        let mut block = Block::zeroed();
        // The store to read from, and whether it is swap; `None` for a
        // spec-filled block.
        let store = match swap_copy {
            Some(f) => Some((f, true)),
            None => match self.spec.fill(env, seg, page, &mut block)? {
                Fill::Minimal => return self.minimal_fault(env, free_seg, seg, page, false),
                Fill::Filled => None,
                Fill::File(f) => {
                    let size = env.store.size(f).map_err(epcm_core::KernelError::from)?;
                    if page.as_u64() * BASE_PAGE_SIZE >= size {
                        return self.minimal_fault(env, free_seg, seg, page, true);
                    }
                    Some((f, false))
                }
            },
        };
        let constraint = self.spec.frame_constraint(seg, page);
        let slot = self.take_free_slot(env, constraint)?;
        if let Some((file, _)) = store {
            let size = env.store.size(file).map_err(epcm_core::KernelError::from)?;
            if page.as_u64() * BASE_PAGE_SIZE < size {
                let latency = self.store_io_with_retry(env, false, |store| {
                    store.read_block(file, page.as_u64(), &mut block)
                })?;
                env.kernel.charge(latency);
            }
        }
        env.kernel.manager_write_block(free_seg, slot, block)?;
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
            run = find_free_run(env.kernel.segment(free_seg)?, want, &self.laundry.slots);
        }
        let (start, len) = match run {
            Some(run) => run,
            None => (self.take_free_slot(env, constraint)?, 1),
        };
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
        self.stats.minimal_faults += 1;
        Ok(())
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
        let constraint = self.spec.frame_constraint(fault.segment, fault.page);
        let slot = self.take_free_slot(env, constraint)?;
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
        let segs: Vec<SegmentId> = self.managed.range(start.0..).map(|(_, m)| m.id).collect();
        for seg in segs {
            if remaining == 0 {
                break;
            }
            let sid = seg.as_u32();
            let from = if sid == start.0 { start.1 } else { 0 };
            let Ok(segment) = env.kernel.segment(seg) else {
                continue;
            };
            let pages: Vec<PageNumber> = segment
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

/// The clock's second-chance op: clear `page`'s `REFERENCED` bit.
fn clear_referenced(seg: SegmentId, page: PageNumber) -> RingOp {
    RingOp::ModifyPageFlags {
        seg,
        page,
        count: 1,
        set: PageFlags::empty(),
        clear: PageFlags::REFERENCED,
    }
}

/// The set bits of a bitmap given as words, ascending: bit `i % 64` of
/// word `i / 64` is page `i`.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = PageNumber> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            let bit = word.trailing_zeros();
            (word != 0).then(|| {
                word &= word - 1;
                PageNumber(w as u64 * 64 + u64::from(bit))
            })
        })
    })
}

/// Free-segment slots holding a frame but no laundry, in slot order: the
/// set bits of the pool's residency bitmap masked by the laundry's.
fn clean_slots<'a>(
    pool: &'a Segment,
    in_laundry: &'a SlotCounts,
) -> impl Iterator<Item = PageNumber> + 'a {
    let words = pool.resident_bits().iter().enumerate();
    set_bits(words.map(|(w, &bits)| bits & !in_laundry.held_word(w)))
}

/// Longest run (up to `want`) of consecutive free-segment slots holding
/// frames, avoiding slots that are keeping laundry data alive. Returns
/// `(start, len)` with `len >= 1`, or `None` if only laundry slots remain.
fn find_free_run(pool: &Segment, want: u64, in_laundry: &SlotCounts) -> Option<(PageNumber, u64)> {
    let mut best: Option<(u64, u64)> = None; // (start, len)
    let mut run: Option<(u64, u64)> = None; // (start, last)
    for p in clean_slots(pool, in_laundry) {
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

impl<S: Specialization + 'static, P: ReplacementPolicy + 'static> SegmentManager
    for GenericManager<S, P>
{
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
        self.managed
            .insert(segment.as_u32(), ManagedSegment::new(segment));
        self.spec.attached(env, segment)?;
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
        // Frames leaving our pool invalidate any laundry they hold.
        self.drop_laundry(env, &give);
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
        for (p, flags) in pages {
            // File data must survive the close; swap data dies with the
            // segment (no writeback).
            if flags.contains(PageFlags::DIRTY) {
                match self.spec.evict_disposition(segment, p, flags) {
                    to @ Disposition::File(_) => self.writeback(env, segment, p, to)?,
                    Disposition::WriteBack => self.spec_write_back(env, segment, p)?,
                    Disposition::Swap | Disposition::Discard => {}
                }
            }
            // A quarantine pin belongs to the page, not the frame.
            let slot = env.kernel.segment(free_seg)?.first_vacant();
            self.op_migrate_pages(
                env,
                segment,
                free_seg,
                p,
                slot,
                1,
                PageFlags::RW,
                PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B | PageFlags::PINNED,
            )?;
            self.policy.note_removed(segment, p);
            self.laundry.remove((segment.as_u32(), p.as_u64()));
        }
        // The closed segment's quarantine dies with it.
        let sid = segment.as_u32();
        self.quarantined.retain(|&(s, _)| s != sid);
        self.managed.remove(&sid);
        self.laundry.segment_closed(sid);
        self.heat.segment_closed(sid);
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
    use crate::default_manager::DefaultSegmentManager;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, UserId};
    use proptest::prelude::*;

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
            block: &mut Block,
        ) -> Result<Fill, ManagerError> {
            block.make_mut().fill(page.as_u64() as u8);
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
        assert!(mgr.manager_stats().discards >= 1);
        assert_eq!(mgr.spec().write_backs, 0);
        assert_eq!(mgr.manager_stats().writebacks, 0);
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

    /// Plain minimal faults, but evicted pages go to swap.
    #[derive(Debug)]
    struct SwapSpec;

    impl Specialization for SwapSpec {
        fn evict_disposition(&self, _: SegmentId, _: PageNumber, _: PageFlags) -> Disposition {
            Disposition::Swap
        }
    }

    /// Any spec that says `Swap` gets the store mechanisms: data survives
    /// eviction under a frame quota, read back from the engine's swap.
    #[test]
    fn swap_disposition_keeps_data_for_any_spec() {
        let mut m = Machine::builder(256)
            .allocation(crate::spcm::AllocationPolicy::Quota { per_manager: 48 })
            .build();
        let id = m.register_manager(Box::new(GenericManager::new(
            SwapSpec,
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
            .downcast_ref::<GenericManager<SwapSpec>>()
            .unwrap();
        let stats = mgr.manager_stats();
        assert!(stats.swap_ins > 0, "{stats:?}");
        assert_eq!(stats.writebacks, mgr.writeback_stats().completed);
    }

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
        assert!(!laundry.slots.holds(PageNumber(10)));
        assert!(laundry.slots.holds(PageNumber(11)));
        assert!(laundry.slots.holds(PageNumber(12)));
        // The stale front entry for `a` is a tombstone; the oldest live
        // mapping is `b`, then `a`'s re-insert.
        assert_eq!(laundry.pop_oldest(), Some(b));
        assert_eq!(laundry.remove(b), Some(PageNumber(11)));
        assert_eq!(laundry.pop_oldest(), Some(a));
        assert_eq!(laundry.remove(a), Some(PageNumber(12)));
        assert_eq!(laundry.pop_oldest(), None);
        assert!(laundry.slots.counts.iter().all(|&n| n == 0));
        assert!(laundry.slots.held.iter().all(|&w| w == 0));
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
                            let held = |counts: &SlotCounts| {
                                counts.held_word(slot / 64) >> (slot % 64) & 1 == 1
                            };
                            let l = &d.laundry;
                            // Counted from the tables, by each entry's own slot.
                            let laundry = l.map.rows.rows.iter().flatten();
                            let laundry = laundry
                                .filter(|&&e| e != LaundrySlot::VACANT && e.slot as usize == slot)
                                .count();
                            let unclean = l.unclean.rows.rows.iter().flatten();
                            let unclean = unclean
                                .filter(|&&e| e != InFlight::VACANT && e.slot as usize == slot)
                                .count();
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
                for (&seg, &left) in &l.closed {
                    assert_eq!(l.map.row(seg).count(), left, "segment {seg}");
                }
                // Only closed segments with laundry left keep rows, and
                // the laundry fits the 24-frame pool.
                assert!(l.map.rows.allocated() <= l.closed.len());
                assert!(l.unclean.rows.allocated() <= l.closed.len());
                assert!(l.closed.len() <= 24);
                Ok(())
            })
            .unwrap();
        }
        assert!(saw_closed_laundry, "no segment closed with laundry left");
    }

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

    /// The laundry bookkeeping as it was before its tables went dense:
    /// `BTreeMap`s keyed by `(segment, page)` and a 64-bit sequence. The
    /// oracle for `laundry_matches_btree_reference`.
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

    fn holds_row<T>(rows: &PageRows<T>, seg: u32) -> bool {
        rows.rows
            .get(seg as usize)
            .is_some_and(|r| r.capacity() > 0)
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
            let mut tickets: TicketId = 0;
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
                            tickets += 1;
                            dense.mark_unclean(key, tickets, at);
                            model.mark_unclean(key, tickets, at);
                        }
                    }
                    6 => {
                        let ticket = bits % (tickets + 1);
                        dense.cleaned(ticket);
                        model.cleaned(ticket);
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
                    prop_assert_eq!(holds_row(&dense.map.rows, seg), left);
                    prop_assert!(left || !holds_row(&dense.unclean.rows, seg));
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
