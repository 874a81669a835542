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
//!   a writeback pipeline that carries every store writeback.
//!
//! A store writeback has one path: the dirty page's bytes land on the
//! store at once (with retry and quarantine), and its disk *time* is
//! booked as a [`epcm_sim::writeback::WritebackPipeline`] ticket, billed
//! when the completion drains. With [`DefaultManagerConfig::async_writeback`]
//! off, and always at segment close, the caller waits for its own ticket
//! at once. On, faults, clock sampling and demotion exchanges proceed
//! while laundry drains in the background; any consumer that needs a
//! promised-free frame before its writeback completed stalls to the
//! completion instant (DESIGN.md §11).
//!
//! The engine never asks which spec it runs: where two managers differ
//! only by a number (refill sizes, the protection-restore batch), that
//! number is a [`DefaultManagerConfig`] field with a per-constructor
//! default.
//!
//! This module holds the hooks, the manager's state and its
//! [`SegmentManager`] face; the engine's stages live in child modules:
//! `pool` (free pool, faults, clock eviction), `laundry` (laundry and
//! writeback), `tiers` (tiers, heat, promotion) and `tick` (tick,
//! sampling, close).

mod laundry;
mod pool;
mod tick;
mod tiers;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use epcm_core::bitmap::Bitmap;
use epcm_core::fault::{FaultEvent, FaultKind};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{RingOp, RingPort, DEFAULT_RING_CAPACITY};
use epcm_core::segment::{PageEntry, Segment};
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::disk::{Block, FileId, FileStore, FileStoreError};
use epcm_sim::writeback::{TicketId, WritebackPipeline};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::compress::{rle_compress, CompressStats};
use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::page_rows::{PageRows, Vacant};
use crate::policy::{ClockPolicy, Probe, ReplacementPolicy};
use crate::spcm::PhysConstraint;
use laundry::Laundry;
use tiers::{Demotion, HeatTable};

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
    /// Pages with a valid swap copy.
    swapped: Bitmap,
}

impl ManagedSegment {
    fn new(id: SegmentId) -> Self {
        ManagedSegment {
            id,
            swap: None,
            swapped: Bitmap::default(),
        }
    }

    /// The swap file holding a valid copy of `page`, if any. A page is
    /// only marked once a swap file exists.
    fn swap_copy(&self, page: PageNumber) -> Option<FileId> {
        self.swap.filter(|_| self.swapped.test(page.as_u64()))
    }
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

/// Counters for the writeback path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WritebackStats {
    /// Total I/O time billed for completed writebacks, µs (page copy +
    /// store latency). Billed when a ticket's completion drains, in both
    /// modes; the store op stream is the same in both, so the totals are
    /// equal once the pipeline is flushed.
    pub billed_us: u64,
    /// Fault-path kernel time spent on dirty-victim writeback, µs: the
    /// wait for the victim's own ticket in synchronous mode. Drops to
    /// zero (absent injected-fault retry backoff) when the caller does
    /// not wait (`async_writeback`).
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
    /// Writebacks whose completion has drained and billed. Equals
    /// [`DefaultManagerStats::writebacks`] between operations in
    /// synchronous mode, and after [`GenericManager::flush_writebacks`]
    /// in either mode.
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
    /// Let an eviction run ahead of its dirty victim's writeback. Every
    /// writeback is a pipeline ticket whose data lands on the store at
    /// once. Off, the evicting caller waits for its own ticket, so the
    /// disk time lands on the fault path; on, the fault goes on and the
    /// disk time bills when the completion drains. Segment close always
    /// waits.
    pub async_writeback: bool,
    /// Maximum writeback disk reservations the pipeline issues on its
    /// own (clamped to at least 1). A stall, a synchronous wait or the
    /// flush barrier issues queued tickets past it.
    pub writeback_window: usize,
    /// Disk arms serving the writeback pipeline (clamped to at least 1).
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
    /// Every store writeback's disk time, one ticket per written page.
    /// Idle between operations in synchronous mode.
    wb: WritebackPipeline<(SegmentId, PageNumber)>,
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
    promo_stats: PromotionStats,
    tracer: Option<SharedTracer>,
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

    /// Writebacks currently queued or in flight in the pipeline (always
    /// 0 between operations in synchronous mode).
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

    /// Whether this manager's market balance is negative.
    fn in_the_red(&self, env: &Env<'_>) -> bool {
        let market = env.spcm.market();
        market.is_some_and(|mk| mk.balance(self.id).is_some_and(|b| b < 0.0))
    }

    /// `MigratePages` as a single-op ring batch: `count` pages from `src`
    /// to `dst`, landing read-write with `clear` cleared.
    fn op_migrate_pages(
        &mut self,
        env: &mut Env<'_>,
        (src, src_page): (SegmentId, PageNumber),
        (dst, dst_page): (SegmentId, PageNumber),
        count: u64,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        let op = RingOp::MigratePages {
            src,
            dst,
            src_page,
            dst_page,
            count,
            set: PageFlags::RW,
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
}

/// What a page sheds as it moves into or out of the free pool: its
/// dirty and reference bits and its sampling mark.
const SHED: PageFlags = PageFlags::from_bits_truncate(
    PageFlags::DIRTY.bits() | PageFlags::REFERENCED.bits() | PageFlags::MANAGER_B.bits(),
);

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
        self.close_segment(env, segment)
    }

    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        self.run_tick(env)
    }

    fn free_frames(&self, kernel: &Kernel) -> u64 {
        self.free_count(kernel)
    }

    fn set_tracer(&mut self, tracer: SharedTracer) {
        self.wb.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        let (s, io, wb) = (&self.stats, &self.io_stats, &self.wb_stats);
        let mut counters = vec![
            ("faults", s.faults),
            ("minimal_faults", s.minimal_faults),
            ("file_fills", s.file_fills),
            ("swap_ins", s.swap_ins),
            ("writebacks", s.writebacks),
            ("reclaimed", s.reclaimed),
            ("laundry_rescues", s.laundry_rescues),
            ("sampling_faults", s.sampling_faults),
            ("cow_faults", s.cow_faults),
            ("append_batches", s.append_batches),
            ("migrate_calls", s.migrate_calls),
            ("demotions", s.demotions),
            ("zram_compressed", self.zram_stats.compressed),
            ("zram_stored_bytes", self.zram_stats.stored_bytes),
            ("io_attempts", io.attempts),
            ("io_retries", io.retries),
            ("io_gave_up", io.gave_up),
            ("quarantined_pages", io.quarantined_pages),
            ("writeback.inflight", self.wb.in_flight() as u64),
            ("writeback.pending", self.wb.queued() as u64),
            ("writeback.stall", wb.stalls),
            ("writeback.stall_us", wb.stall_us),
            ("writeback.completed", wb.completed),
            ("writeback.billed_us", wb.billed_us),
            ("laundry_dropped", wb.laundry_dropped),
            ("ring.submitted", self.ring.submitted()),
        ];
        // Promotion keys are opt-in: off-by-default runs export
        // byte-identical documents.
        if self.promotion_on() {
            let p = &self.promo_stats;
            counters.extend([
                ("promotions.count", s.promotions),
                ("promotions.heat_events", p.heat_events),
                ("promotions.to_free", p.to_free),
                ("promotions.swapped", p.swapped),
                ("promotions.no_target", p.no_target),
            ]);
        }
        for (name, value) in counters {
            m.set(&format!("manager.{}.{name}", self.id.0), value);
        }
    }
}
