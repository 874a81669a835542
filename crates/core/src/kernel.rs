//! The V++ kernel virtual-memory system.
//!
//! The kernel implements exactly the mechanism of §2.1 of the paper and
//! nothing more: segments, bound regions (including copy-on-write), page
//! frame migration, page-flag manipulation, attribute queries, fault
//! *classification* and the UIO block interface onto cached-file segments.
//! It performs **no** page reclamation, **no** writeback and owns **no**
//! replacement policy — all of that lives in process-level managers (the
//! `epcm-managers` crate).
//!
//! The kernel never calls a manager. A reference that cannot be satisfied
//! returns [`AccessOutcome::Fault`]; the machine layer routes the event to
//! the registered manager, which re-enters the kernel through operations
//! like [`Kernel::migrate_pages`]. This mirrors the paper's upcall/IPC
//! dispatch (Figure 2) while keeping Rust ownership untangled.

use epcm_sim::clock::{Clock, Micros, Timestamp};
use epcm_sim::cost::CostModel;
use epcm_sim::disk::Block;
use epcm_trace::event::{access, fault_class};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::error::KernelError;
use crate::fault::{FaultEvent, FaultKind};
use crate::flags::PageFlags;
use crate::frame::{owner_page, FrameTable};
use crate::ring::{CompletionEntry, CompletionRing, RingOp, SubmissionRing};
use crate::segment::{BoundRegion, PageEntry, Segment};
use crate::tier::{MemTier, TierLayout};
use crate::translate::{MappingTable, Tlb};
use crate::types::{
    AccessKind, FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, UserId, BASE_PAGE_SIZE,
};

/// Maximum bound-region chain depth (address space → file segment →
/// ... ). Figure 1 needs two levels; four leaves headroom without allowing
/// runaway cycles.
pub const MAX_BIND_DEPTH: usize = 4;

/// The result of a memory reference or UIO operation: either it completed,
/// or the kernel packaged a fault for a segment manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Fault outcome must be routed to the segment manager"]
pub enum AccessOutcome {
    /// The access completed against resident, accessible pages.
    Completed,
    /// The access faulted; the event must be delivered to its manager and
    /// the access retried afterwards.
    Fault(FaultEvent),
}

impl AccessOutcome {
    /// Whether the access completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, AccessOutcome::Completed)
    }
}

/// Attributes of one page, as returned by `GetPageAttributes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAttributes {
    /// The queried page number.
    pub page: PageNumber,
    /// Whether a frame is present.
    pub present: bool,
    /// Page flags (empty when not present).
    pub flags: PageFlags,
    /// The (first) physical frame, when present. Physical placement and
    /// page-coloring managers read the address off this.
    pub frame: Option<FrameId>,
}

impl PageAttributes {
    /// The physical byte address of the page, when present.
    pub fn phys_addr(&self) -> Option<u64> {
        self.frame.map(FrameId::phys_addr)
    }
}

/// Event counters maintained by the kernel (Table 3's activity columns are
/// read from here and from the manager's own counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// References that completed without fault.
    pub references: u64,
    /// Missing-page faults generated.
    pub faults_missing: u64,
    /// Protection faults generated.
    pub faults_protection: u64,
    /// Copy-on-write faults generated.
    pub faults_cow: u64,
    /// `MigratePages` calls.
    pub migrate_calls: u64,
    /// Total page frames migrated.
    pub pages_migrated: u64,
    /// `ModifyPageFlags` calls.
    pub modify_calls: u64,
    /// `GetPageAttributes` calls.
    pub get_attr_calls: u64,
    /// UIO block reads served.
    pub uio_reads: u64,
    /// UIO block writes served.
    pub uio_writes: u64,
    /// Security zero-fills performed (frame crossed users).
    pub zero_fills: u64,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// `MigrateFrame` tier exchanges performed.
    pub tier_migrations: u64,
    /// The subset of [`KernelStats::tier_migrations`] whose page landed
    /// on a strictly faster tier — the promotion direction of the
    /// exchange.
    pub tier_promotions: u64,
    /// Completed references that touched a [`MemTier::SlowMem`] frame.
    pub slow_accesses: u64,
    /// Completed references that touched a [`MemTier::CompressedRam`]
    /// frame.
    pub zram_accesses: u64,
    /// Modeled protection-boundary crossings: one per manager-ABI kernel
    /// call, one per non-empty [`Kernel::drain_ring`] doorbell, plus the
    /// dispatch legs the machine layer reports via
    /// [`Kernel::note_crossings`]. This is the quantity coalescing ops
    /// onto one ring doorbell collapses.
    pub crossings: u64,
    /// Non-empty batches consumed by [`Kernel::drain_ring`].
    pub ring_batches: u64,
    /// Ring operations executed by [`Kernel::drain_ring`] (cancelled
    /// entries are not counted — they never ran).
    pub ring_ops: u64,
}

impl KernelStats {
    /// Total faults of all kinds.
    pub fn faults(&self) -> u64 {
        self.faults_missing + self.faults_protection + self.faults_cow
    }
}

/// Internal resolution of a `(segment, page)` reference through bound
/// regions.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    /// The owning slot (an entry may or may not be present there).
    Own {
        segment: SegmentId,
        page: PageNumber,
        /// Intersection of region protections along the chain; the page's
        /// own flags are additionally required to permit the access.
        prot_mask: PageFlags,
    },
    /// A write hit an unbroken copy-on-write binding: the private copy
    /// belongs at `hold`, fed from `source`.
    CowPending {
        hold_segment: SegmentId,
        hold_page: PageNumber,
        source_segment: SegmentId,
        source_page: PageNumber,
        prot_mask: PageFlags,
    },
}

/// A reference's outcome, with the frame a completed one resolved to.
enum Referenced {
    Completed(FrameId),
    Fault(FaultEvent),
}

/// What referencing every page under a load's or store's bytes found.
enum Span {
    /// A page faulted, so no byte may move.
    Fault(FaultEvent),
    /// The bytes lie within one page: the frame its reference resolved
    /// to and the bytes' offset in it.
    OnePage { frame: FrameId, in_page: u64 },
    /// The bytes straddle pages (or there are none): the copy resolves
    /// each page.
    Pages,
}

/// The V++ kernel.
///
/// # Example
///
/// ```
/// use epcm_core::kernel::Kernel;
/// use epcm_core::types::{ManagerId, SegmentId, SegmentKind, UserId};
/// use epcm_core::flags::PageFlags;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut kernel = Kernel::new(256); // 1 MB machine
/// // All physical memory starts in the well-known boot segment:
/// assert_eq!(kernel.resident_pages(SegmentId::FRAME_POOL)?, 256);
///
/// // Allocating = migrating frames out of the boot segment.
/// let seg = kernel.create_segment(
///     SegmentKind::Anonymous, UserId::SYSTEM, ManagerId::SYSTEM, 16)?;
/// kernel.migrate_pages(
///     SegmentId::FRAME_POOL, seg, 0.into(), 0.into(), 4,
///     PageFlags::RW, PageFlags::empty())?;
/// assert_eq!(kernel.resident_pages(seg)?, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    frames: FrameTable,
    /// Segments indexed by id. Ids are handed out in order and never
    /// reused, so a destroyed segment leaves `None` behind and the next
    /// id is always the table's length.
    segments: Vec<Option<Segment>>,
    mapping: MappingTable,
    tlb: Tlb,
    clock: Clock,
    costs: CostModel,
    stats: KernelStats,
    tracer: Option<SharedTracer>,
    tiers: TierLayout,
}

impl Kernel {
    /// Creates a kernel managing `frames` 4 KB page frames, with the
    /// DECstation 5000/200 cost model.
    ///
    /// On initialisation the kernel creates the well-known boot segment
    /// ([`SegmentId::FRAME_POOL`]) containing every page frame in
    /// physical-address order, managed by [`ManagerId::SYSTEM`].
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        Kernel::with_costs(frames, CostModel::decstation_5000_200())
    }

    /// Creates a kernel with an explicit cost model.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn with_costs(frames: usize, costs: CostModel) -> Self {
        Kernel::with_tiers(frames, costs, TierLayout::dram_only(frames as u64))
    }

    /// Creates a kernel whose frame pool is partitioned into physical
    /// memory tiers. `Kernel::with_costs` is the degenerate
    /// [`TierLayout::dram_only`] case; on such layouts every tier check
    /// short-circuits, so flat machines behave byte-identically to the
    /// pre-tier implementation.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or `tiers.total()` differs from
    /// `frames`.
    pub fn with_tiers(frames: usize, costs: CostModel, tiers: TierLayout) -> Self {
        assert_eq!(
            tiers.total(),
            frames as u64,
            "tier layout must cover the frame pool exactly"
        );
        let table = FrameTable::new(frames);
        let boot = Segment::boot(table.ids());
        Kernel {
            frames: table,
            segments: vec![Some(boot)],
            mapping: MappingTable::vpp_default(),
            tlb: Tlb::r3000(),
            clock: Clock::new(),
            costs,
            stats: KernelStats::default(),
            tracer: None,
            tiers,
        }
    }

    /// The boot-time tier partition of the frame pool.
    pub fn tiers(&self) -> &TierLayout {
        &self.tiers
    }

    /// Charges the destination tier's per-access latency for `frame`,
    /// counting it in the kernel stats. Free on DRAM frames and on
    /// single-tier machines.
    fn charge_tier_access(&mut self, frame: FrameId) {
        if self.tiers.is_dram_only() {
            return;
        }
        match self.tiers.tier_of(frame) {
            MemTier::Dram => {}
            MemTier::SlowMem => {
                self.stats.slow_accesses += 1;
                self.clock.advance(self.costs.slowmem_access);
            }
            MemTier::CompressedRam => {
                self.stats.zram_accesses += 1;
                self.clock.advance(self.costs.zram_access);
            }
        }
    }

    // ----- clock / cost plumbing ------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances the virtual clock; managers use this to charge their own
    /// processing time (fill loops, policy scans).
    pub fn charge(&mut self, d: Micros) {
        self.clock.advance(d);
    }

    /// The machine cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Kernel event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Records `n` protection-boundary crossings that happened outside a
    /// kernel call — the machine layer reports the fault-dispatch and
    /// reply legs of a server-mode upcall here so
    /// [`KernelStats::crossings`] counts the full manager-fault path.
    pub fn note_crossings(&mut self, n: u64) {
        self.stats.crossings += n;
    }

    /// Mapping-table statistics (hash-table hits/misses/displacements).
    pub fn mapping_stats(&self) -> crate::translate::MappingStats {
        self.mapping.stats()
    }

    /// Hardware TLB statistics (hits, kernel-handled refills,
    /// shootdowns).
    pub fn tlb_stats(&self) -> crate::translate::TlbStats {
        self.tlb.stats()
    }

    /// Resets kernel and mapping statistics (the clock keeps running).
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
        self.mapping.reset_stats();
        self.tlb.reset_stats();
    }

    // ----- tracing / metrics ----------------------------------------------

    /// Installs a shared event tracer: every subsequent kernel operation
    /// (fault delivery, migration, composition, flag changes, UIO
    /// transfers) is recorded into it at the current virtual time.
    /// Cloning the kernel shares the tracer.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// Records `kind` at the current virtual time, if tracing is on.
    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(TraceEvent::new(self.clock.now().as_micros(), kind));
        }
    }

    /// Exports every kernel counter into `m` under stable `kernel.*`
    /// names. This is the kernel's contribution to the unified metrics
    /// registry; the fast-path accumulators ([`KernelStats`], mapping and
    /// TLB stats) stay as plain struct fields and are copied out here.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        let s = &self.stats;
        m.set("kernel.references", s.references);
        m.set("kernel.faults.missing", s.faults_missing);
        m.set("kernel.faults.protection", s.faults_protection);
        m.set("kernel.faults.cow", s.faults_cow);
        m.set("kernel.migrate.calls", s.migrate_calls);
        m.set("kernel.migrate.pages", s.pages_migrated);
        m.set("kernel.modify_flags.calls", s.modify_calls);
        m.set("kernel.get_attr.calls", s.get_attr_calls);
        m.set("kernel.uio.reads", s.uio_reads);
        m.set("kernel.uio.writes", s.uio_writes);
        m.set("kernel.zero_fills", s.zero_fills);
        m.set("kernel.cow_copies", s.cow_copies);
        m.set("tier.migrations", s.tier_migrations);
        m.set("tier.slow_accesses", s.slow_accesses);
        m.set("tier.zram_accesses", s.zram_accesses);
        // Promotions only happen when a manager opts into the promotion
        // ladder, so the key appears only once one has occurred —
        // promotion-off runs export byte-identical documents.
        if s.tier_promotions > 0 {
            m.set("tier.promotions", s.tier_promotions);
        }
        m.set("kernel.crossings", s.crossings);
        m.set("kernel.ring.batches", s.ring_batches);
        m.set("kernel.ring.ops", s.ring_ops);
        for tier in MemTier::all() {
            m.set(
                &format!("tier.{}.frames", tier.name()),
                self.tiers.count(tier),
            );
        }
        let ms = self.mapping.stats();
        m.set("kernel.mapping.direct_hits", ms.direct_hits);
        m.set("kernel.mapping.overflow_hits", ms.overflow_hits);
        m.set("kernel.mapping.misses", ms.misses);
        m.set("kernel.mapping.displacements", ms.displacements);
        m.set("kernel.mapping.overflow_evictions", ms.overflow_evictions);
        let ts = self.tlb.stats();
        m.set("kernel.tlb.hits", ts.hits);
        m.set("kernel.tlb.misses", ts.misses);
        m.set("kernel.tlb.invalidations", ts.invalidations);
    }

    // ----- segment lifecycle ----------------------------------------------

    /// Creates a segment of `size_pages` 4 KB pages, owned by `user` and
    /// managed by `manager`.
    ///
    /// # Errors
    ///
    /// Never fails currently; returns `Result` for future resource limits.
    pub fn create_segment(
        &mut self,
        kind: SegmentKind,
        user: UserId,
        manager: ManagerId,
        size_pages: u64,
    ) -> Result<SegmentId, KernelError> {
        // Each live or destroyed id holds a table slot, so memory runs out
        // long before the id space does.
        let id = SegmentId(u32::try_from(self.segments.len()).expect("segment ids exhausted"));
        self.segments
            .push(Some(Segment::new(id, kind, user, manager, size_pages)));
        self.clock.advance(self.costs.segment_ctl);
        Ok(id)
    }

    /// Destroys an empty segment.
    ///
    /// # Errors
    ///
    /// * [`KernelError::BootSegmentImmutable`] for the boot segment.
    /// * [`KernelError::UnknownSegment`] if it does not exist.
    /// * [`KernelError::PageNotPresent`] is **not** used here; a segment
    ///   with resident frames is rejected as [`KernelError::DestinationOccupied`]
    ///   naming the first resident page — the manager must migrate frames
    ///   out first (that is its reclamation duty in the paper).
    pub fn destroy_segment(&mut self, seg: SegmentId) -> Result<(), KernelError> {
        if seg == SegmentId::FRAME_POOL {
            return Err(KernelError::BootSegmentImmutable);
        }
        let s = self.segment(seg)?;
        if let Some((page, _)) = s.resident().next() {
            return Err(KernelError::DestinationOccupied { segment: seg, page });
        }
        self.segments[seg.0 as usize] = None;
        self.mapping.remove_segment(seg);
        self.tlb.invalidate_segment(seg);
        self.clock.advance(self.costs.segment_ctl);
        Ok(())
    }

    /// Grows or shrinks a segment. Shrinking below a resident page or a
    /// bound region is rejected.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`], [`KernelError::BootSegmentImmutable`],
    /// or [`KernelError::DestinationOccupied`] naming the blocking page.
    pub fn resize_segment(&mut self, seg: SegmentId, size_pages: u64) -> Result<(), KernelError> {
        if seg == SegmentId::FRAME_POOL {
            return Err(KernelError::BootSegmentImmutable);
        }
        let s = self.segment(seg)?;
        if size_pages < s.size_pages() {
            if let Some((page, _)) = s.resident_from(PageNumber(size_pages)).next() {
                return Err(KernelError::DestinationOccupied { segment: seg, page });
            }
            if let Some(r) = s
                .regions()
                .iter()
                .find(|r| r.at.as_u64() + r.pages > size_pages)
            {
                return Err(KernelError::RegionOverlap {
                    segment: seg,
                    page: r.at,
                });
            }
        }
        self.segment_mut(seg)?.set_size_pages(size_pages);
        Ok(())
    }

    /// `SetSegmentManager`: registers `manager` as the segment's manager.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`].
    pub fn set_segment_manager(
        &mut self,
        seg: SegmentId,
        manager: ManagerId,
    ) -> Result<(), KernelError> {
        self.segment_mut(seg)?.set_manager(manager);
        Ok(())
    }

    /// Shared access to a segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`].
    pub fn segment(&self, seg: SegmentId) -> Result<&Segment, KernelError> {
        self.segments
            .get(seg.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(KernelError::UnknownSegment(seg))
    }

    fn segment_mut(&mut self, seg: SegmentId) -> Result<&mut Segment, KernelError> {
        self.segments
            .get_mut(seg.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(KernelError::UnknownSegment(seg))
    }

    /// Number of resident pages in a segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`].
    pub fn resident_pages(&self, seg: SegmentId) -> Result<u64, KernelError> {
        Ok(self.segment(seg)?.resident_pages())
    }

    /// All live segment ids, ascending.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.segments.iter().flatten().map(Segment::id)
    }

    /// The physical frame table (read-only; mutation goes through kernel
    /// operations).
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// The well-known boot segment id (also [`SegmentId::FRAME_POOL`]).
    pub fn frame_pool(&self) -> SegmentId {
        SegmentId::FRAME_POOL
    }

    // ----- bindings ---------------------------------------------------------

    /// Binds `pages` pages of `target` (starting at `target_page`) into
    /// `seg` at `at`, optionally copy-on-write.
    ///
    /// # Errors
    ///
    /// * [`KernelError::UnknownSegment`] for either segment.
    /// * [`KernelError::PageOutOfRange`] if a range exceeds its segment.
    /// * [`KernelError::RegionOverlap`] if overlapping an existing region
    ///   or resident pages.
    /// * [`KernelError::BindingTooDeep`] if the chain would exceed
    ///   [`MAX_BIND_DEPTH`] (this also rejects cycles).
    #[allow(clippy::too_many_arguments)] // mirrors the kernel-call signature
    pub fn bind_region(
        &mut self,
        seg: SegmentId,
        at: PageNumber,
        pages: u64,
        target: SegmentId,
        target_page: PageNumber,
        cow: bool,
        protection: PageFlags,
    ) -> Result<(), KernelError> {
        let seg_size = self.segment(seg)?.size_pages();
        let tgt_size = self.segment(target)?.size_pages();
        if at.as_u64() + pages > seg_size {
            return Err(KernelError::PageOutOfRange {
                segment: seg,
                page: at,
                size: seg_size,
            });
        }
        if target_page.as_u64() + pages > tgt_size {
            return Err(KernelError::PageOutOfRange {
                segment: target,
                page: target_page,
                size: tgt_size,
            });
        }
        // Depth/cycle check: walking from `target` must terminate within
        // the depth budget even through its own regions; binding `seg`
        // itself anywhere along the chain is a cycle.
        self.check_depth(target, seg, 1)?;
        let s = self.segment(seg)?;
        if s.has_resident_in(at, pages) {
            return Err(KernelError::RegionOverlap {
                segment: seg,
                page: at,
            });
        }
        let region = BoundRegion {
            at,
            pages,
            target,
            target_page,
            cow,
            protection,
        };
        if !self.segment_mut(seg)?.add_region(region) {
            return Err(KernelError::RegionOverlap {
                segment: seg,
                page: at,
            });
        }
        self.clock.advance(self.costs.bind_region);
        Ok(())
    }

    fn check_depth(
        &self,
        seg: SegmentId,
        origin: SegmentId,
        depth: usize,
    ) -> Result<(), KernelError> {
        if seg == origin || depth > MAX_BIND_DEPTH {
            return Err(KernelError::BindingTooDeep(seg));
        }
        let s = self.segment(seg)?;
        for r in s.regions() {
            self.check_depth(r.target, origin, depth + 1)?;
        }
        Ok(())
    }

    /// Removes the region starting at `at`. Private copies created by a
    /// copy-on-write binding remain in the segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`], or [`KernelError::RegionOverlap`]
    /// naming `at` if no region starts there.
    pub fn unbind_region(&mut self, seg: SegmentId, at: PageNumber) -> Result<(), KernelError> {
        match self.segment_mut(seg)?.remove_region(at) {
            Some(_) => {
                self.clock.advance(self.costs.bind_region);
                Ok(())
            }
            None => Err(KernelError::RegionOverlap {
                segment: seg,
                page: at,
            }),
        }
    }

    // ----- resolution -------------------------------------------------------

    fn resolve(
        &self,
        seg: SegmentId,
        page: PageNumber,
        for_write: bool,
    ) -> Result<Resolved, KernelError> {
        let mut cur_seg = seg;
        let mut cur_page = page;
        let mut mask = PageFlags::all();
        for _ in 0..=MAX_BIND_DEPTH {
            let s = self.segment(cur_seg)?;
            if !s.in_range(cur_page) {
                return Err(KernelError::PageOutOfRange {
                    segment: cur_seg,
                    page: cur_page,
                    size: s.size_pages(),
                });
            }
            if s.entry(cur_page).is_some() {
                return Ok(Resolved::Own {
                    segment: cur_seg,
                    page: cur_page,
                    prot_mask: mask,
                });
            }
            match s.region_at(cur_page) {
                Some(r) => {
                    mask = mask & r.protection;
                    let tpage = r.translate(cur_page);
                    if r.cow && for_write {
                        // Find the actual source slot by read-resolving the
                        // target side.
                        let src = self.resolve(r.target, tpage, false)?;
                        let (source_segment, source_page) = match src {
                            Resolved::Own { segment, page, .. } => (segment, page),
                            Resolved::CowPending {
                                source_segment,
                                source_page,
                                ..
                            } => (source_segment, source_page),
                        };
                        return Ok(Resolved::CowPending {
                            hold_segment: cur_seg,
                            hold_page: cur_page,
                            source_segment,
                            source_page,
                            prot_mask: mask,
                        });
                    }
                    cur_seg = r.target;
                    cur_page = tpage;
                }
                None => {
                    return Ok(Resolved::Own {
                        segment: cur_seg,
                        page: cur_page,
                        prot_mask: mask,
                    })
                }
            }
        }
        Err(KernelError::BindingTooDeep(seg))
    }

    // ----- reference (the fault path) ---------------------------------------

    /// A memory reference to `page` of `seg`. On success the page's
    /// `REFERENCED` (and for writes `DIRTY`) flags are set. On failure a
    /// [`FaultEvent`] is returned for delivery to the page's manager and
    /// the trap-entry cost is charged.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`], [`KernelError::PageOutOfRange`] or
    /// [`KernelError::BindingTooDeep`] — these are programming errors, not
    /// faults.
    pub fn reference(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        access: AccessKind,
    ) -> Result<AccessOutcome, KernelError> {
        Ok(match self.reference_frame(seg, page, access)? {
            Referenced::Completed(_) => AccessOutcome::Completed,
            Referenced::Fault(fault) => AccessOutcome::Fault(fault),
        })
    }

    /// [`Kernel::reference`], returning the frame a completed reference
    /// resolved to. Inlined into both callers: left as a call, it made a
    /// hit `reference` about a third slower on the host.
    #[inline(always)]
    fn reference_frame(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        access: AccessKind,
    ) -> Result<Referenced, KernelError> {
        match self.resolve(seg, page, access.is_write())? {
            Resolved::Own {
                segment,
                page: opage,
                prot_mask,
            } => {
                let owner = self.segment(segment)?;
                match owner.entry(opage) {
                    Some(entry) => {
                        let effective = entry.flags & prot_mask;
                        if effective.permits(access) {
                            let frame = self.complete_reference(segment, opage, access);
                            Ok(Referenced::Completed(frame))
                        } else {
                            Ok(Referenced::Fault(self.make_fault(
                                segment,
                                opage,
                                FaultKind::Protection { flags: entry.flags },
                                access,
                                seg,
                                page,
                            )))
                        }
                    }
                    None => Ok(Referenced::Fault(self.make_fault(
                        segment,
                        opage,
                        FaultKind::Missing,
                        access,
                        seg,
                        page,
                    ))),
                }
            }
            Resolved::CowPending {
                hold_segment,
                hold_page,
                source_segment,
                source_page,
                prot_mask,
            } => {
                if !prot_mask.contains(PageFlags::WRITE) {
                    // The binding itself forbids writing.
                    return Ok(Referenced::Fault(self.make_fault(
                        hold_segment,
                        hold_page,
                        FaultKind::Protection { flags: prot_mask },
                        access,
                        seg,
                        page,
                    )));
                }
                // If the source side has no data yet, that missing fault
                // must resolve first (against the source's manager).
                if self.segment(source_segment)?.entry(source_page).is_none() {
                    return Ok(Referenced::Fault(self.make_fault(
                        source_segment,
                        source_page,
                        FaultKind::Missing,
                        access,
                        seg,
                        page,
                    )));
                }
                Ok(Referenced::Fault(self.make_fault(
                    hold_segment,
                    hold_page,
                    FaultKind::CopyOnWrite {
                        source_segment,
                        source_page,
                    },
                    access,
                    seg,
                    page,
                )))
            }
        }
    }

    fn complete_reference(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        access: AccessKind,
    ) -> FrameId {
        self.stats.references += 1;
        // Hardware TLB first; a miss is refilled by the kernel ("simple
        // TLB misses are handled by the kernel") from the global hash
        // table, walking the segment structures on a hash miss.
        // Statistics only; hits cost no modelled time.
        if !self.tlb.access(seg, page) && self.mapping.lookup(seg, page).is_none() {
            if let Some(e) = self
                .segment(seg)
                .expect("segment checked by caller")
                .entry(page)
            {
                self.mapping.install(seg, page, e.frame);
            }
        }
        let entry = self
            .segment_mut(seg)
            .expect("segment checked by caller")
            .entry_mut(page)
            .expect("entry checked by caller");
        entry.flags |= PageFlags::REFERENCED;
        if access.is_write() {
            entry.flags |= PageFlags::DIRTY;
        }
        let frame = entry.frame;
        // Tiered machines pay the slow-tier access latency on every
        // completed reference; DRAM (and single-tier machines) stay free.
        self.charge_tier_access(frame);
        frame
    }

    #[cold]
    #[inline(never)]
    fn make_fault(
        &mut self,
        segment: SegmentId,
        page: PageNumber,
        kind: FaultKind,
        access: AccessKind,
        via_segment: SegmentId,
        via_page: PageNumber,
    ) -> FaultEvent {
        match kind {
            FaultKind::Missing => self.stats.faults_missing += 1,
            FaultKind::Protection { .. } => self.stats.faults_protection += 1,
            FaultKind::CopyOnWrite { .. } => self.stats.faults_cow += 1,
        }
        self.clock.advance(self.costs.trap_entry);
        let manager = self
            .segment(segment)
            .expect("segment checked by caller")
            .manager();
        self.trace(EventKind::Fault {
            manager: manager.0,
            segment: segment.0 as u64,
            page: page.as_u64(),
            access: match access {
                AccessKind::Read => access::READ,
                AccessKind::Write => access::WRITE,
            },
            class: match kind {
                FaultKind::Missing => fault_class::MISSING,
                FaultKind::Protection { .. } => fault_class::PROTECTION,
                FaultKind::CopyOnWrite { .. } => fault_class::COW,
            },
        });
        FaultEvent {
            manager,
            segment,
            page,
            kind,
            access,
            via_segment,
            via_page,
        }
    }

    // ----- MigratePages ------------------------------------------------------

    /// `MigratePages`: moves `count` page frames from `src` starting at
    /// `src_page` to `dst` starting at `dst_page`, applying `set`/`clear`
    /// to each migrated page's flags.
    ///
    /// Migration into a copy-on-write bound range installs the private
    /// copy: the kernel copies the bound source page's contents into the
    /// arriving frame ("the kernel performs the copy after the manager has
    /// allocated a page"). Migration into a normally bound range forwards
    /// to the bound segment, exactly as the paper describes for Figure 1.
    ///
    /// A frame migrating into a segment owned by a different user is
    /// zero-filled for security first — this is the cost Ultrix pays on
    /// *every* allocation and V++ only across protection domains.
    ///
    /// # Errors
    ///
    /// Fails atomically per page (earlier pages stay migrated) with
    /// [`KernelError::PageNotPresent`], [`KernelError::DestinationOccupied`],
    /// [`KernelError::PageOutOfRange`], [`KernelError::UnknownSegment`] or,
    /// for a destination page past `u32::MAX`,
    /// [`KernelError::PageNotAddressable`].
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_pages(
        &mut self,
        src: SegmentId,
        dst: SegmentId,
        src_page: PageNumber,
        dst_page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), KernelError> {
        self.stats.crossings += 1;
        let call = self.costs.kernel_call;
        self.migrate_pages_at(src, dst, src_page, dst_page, count, set, clear, call)
    }

    /// [`Kernel::migrate_pages`] with the call-entry cost supplied by the
    /// caller: the full `kernel_call` for a synchronous call, zero for a
    /// ring op (the batch's single doorbell already paid the crossing).
    #[allow(clippy::too_many_arguments)]
    fn migrate_pages_at(
        &mut self,
        src: SegmentId,
        dst: SegmentId,
        src_page: PageNumber,
        dst_page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
        call_cost: Micros,
    ) -> Result<(), KernelError> {
        self.stats.migrate_calls += 1;
        self.clock.advance(call_cost + self.costs.migrate_base);
        for i in 0..count {
            self.migrate_one(src, dst, src_page.offset(i), dst_page.offset(i), set, clear)?;
            self.stats.pages_migrated += 1;
            self.clock.advance(self.costs.migrate_per_page);
        }
        self.trace(EventKind::Migrate {
            from_segment: src.0 as u64,
            to_segment: dst.0 as u64,
            pages: count,
        });
        Ok(())
    }

    fn migrate_one(
        &mut self,
        src: SegmentId,
        dst: SegmentId,
        src_page: PageNumber,
        dst_page: PageNumber,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), KernelError> {
        // Resolve the source slot (read resolution; frame must be present).
        let (src_seg, src_pg) = match self.resolve(src, src_page, false)? {
            Resolved::Own { segment, page, .. } => (segment, page),
            Resolved::CowPending { .. } => {
                return Err(KernelError::PageNotPresent {
                    segment: src,
                    page: src_page,
                })
            }
        };
        // Resolve the destination slot (write resolution: a COW range
        // breaks here; a plain bound range forwards).
        let (dst_seg, dst_pg, cow_source) = match self.resolve(dst, dst_page, true)? {
            Resolved::Own { segment, page, .. } => (segment, page, None),
            Resolved::CowPending {
                hold_segment,
                hold_page,
                source_segment,
                source_page,
                ..
            } => (hold_segment, hold_page, Some((source_segment, source_page))),
        };
        let owner_pg = owner_page(dst_seg, dst_pg)?;
        if self.segment(dst_seg)?.entry(dst_pg).is_some() {
            return Err(KernelError::DestinationOccupied {
                segment: dst_seg,
                page: dst_pg,
            });
        }
        let entry =
            self.segment_mut(src_seg)?
                .remove_entry(src_pg)
                .ok_or(KernelError::PageNotPresent {
                    segment: src_seg,
                    page: src_pg,
                })?;
        self.mapping.remove(src_seg, src_pg);
        self.tlb.invalidate(src_seg, src_pg);

        let frame = entry.frame;
        let dst_user = self.segment(dst_seg)?.user();
        let mut flags = entry.flags.apply(set, clear);

        // Security zeroing across users (skipped when a COW copy will
        // overwrite the whole page anyway).
        if self.frames.last_user(frame) != dst_user && cow_source.is_none() {
            self.frames.zero(frame);
            self.stats.zero_fills += 1;
            self.clock.advance(self.costs.page_zero_4k);
        }
        self.frames.set_last_user(frame, dst_user);

        // Kernel-performed COW copy.
        if let Some((cs, cp)) = cow_source {
            let src_entry = self
                .segment(cs)?
                .entry(cp)
                .ok_or(KernelError::PageNotPresent {
                    segment: cs,
                    page: cp,
                })?;
            self.frames.copy(src_entry.frame, frame);
            self.stats.cow_copies += 1;
            self.clock.advance(self.costs.page_copy_4k);
            flags |= PageFlags::DIRTY;
        }

        self.frames.set_owner(frame, (dst_seg, owner_pg));
        self.segment_mut(dst_seg)?
            .insert_entry(dst_pg, PageEntry { frame, flags });
        self.mapping.install(dst_seg, dst_pg, frame);
        // Filling or draining a slow-tier frame pays that tier's access
        // latency on top of the migration cost.
        self.charge_tier_access(frame);
        Ok(())
    }

    // ----- MigrateFrame (tier exchange) -----------------------------------

    /// `MigrateFrame`: moves the page at `(seg, page)` onto the physical
    /// frame `dst`, exchanging frames with whatever slot currently holds
    /// `dst`. This is the tier-migration primitive: a manager demotes a
    /// cold page by exchanging its DRAM frame with a SlowMem or
    /// CompressedRam frame from its free-page segment (and promotes by
    /// the reverse exchange). Both slots keep their flags; the copy cost
    /// plus the destination tier's access latency is charged to the
    /// caller's virtual time, and a `tier_migrated` event is traced.
    ///
    /// The exchange never changes how many frames either segment holds,
    /// so SPCM grant accounting and the frame-conservation invariant are
    /// unaffected.
    ///
    /// Exchanging a frame with itself is a no-op.
    ///
    /// # Errors
    ///
    /// * [`KernelError::BootSegmentImmutable`] if `seg` is the boot pool.
    /// * [`KernelError::PageOutOfRange`] if `dst` is not a valid frame.
    /// * [`KernelError::PageNotPresent`] if `(seg, page)` has no frame.
    /// * [`KernelError::FrameNotExchangeable`] if `dst` still sits in the
    ///   boot pool.
    pub fn migrate_frame(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        dst: FrameId,
    ) -> Result<(), KernelError> {
        self.stats.crossings += 1;
        let call = self.costs.kernel_call;
        self.migrate_frame_at(seg, page, dst, call)
    }

    /// [`Kernel::migrate_frame`] with a caller-supplied call-entry cost
    /// (see [`Kernel::migrate_pages`]'s `_at` variant).
    fn migrate_frame_at(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        dst: FrameId,
        call_cost: Micros,
    ) -> Result<(), KernelError> {
        // The entry is paid even by a failing or no-op exchange, as for
        // every other manager-ABI call.
        self.clock.advance(call_cost);
        if seg == SegmentId::FRAME_POOL {
            return Err(KernelError::BootSegmentImmutable);
        }
        if !self.frames.is_valid(dst) {
            return Err(KernelError::PageOutOfRange {
                segment: SegmentId::FRAME_POOL,
                page: PageNumber(dst.index() as u64),
                size: self.frames.len() as u64,
            });
        }
        let src = self
            .segment(seg)?
            .entry(page)
            .ok_or(KernelError::PageNotPresent { segment: seg, page })?
            .frame;
        if src == dst {
            return Ok(());
        }
        let (dst_seg, dst_pg) = self.frames.owner(dst);
        if dst_seg == SegmentId::FRAME_POOL {
            return Err(KernelError::FrameNotExchangeable { frame: dst });
        }

        // The page's bytes move to `dst`; the evicted bytes of `dst` are
        // dead (its slot is a free-page pool entry by construction), so a
        // one-way copy suffices.
        self.frames.copy(src, dst);
        match self.segment_mut(seg)?.entry_mut(page) {
            Some(e) => e.frame = dst,
            None => return Err(KernelError::PageNotPresent { segment: seg, page }),
        }
        match self.segment_mut(dst_seg)?.entry_mut(dst_pg) {
            Some(e) => e.frame = src,
            None => {
                return Err(KernelError::PageNotPresent {
                    segment: dst_seg,
                    page: dst_pg,
                })
            }
        }
        // `src` is owned by `(seg, page)`: the two frames trade slots.
        self.frames.swap_owners(src, dst);
        // Both frames now physically hold the page owner's data: the
        // destination by the copy, the source residually. Tracking that
        // keeps the security-zeroing rule exact on later migrations.
        let user = self.frames.last_user(src);
        self.frames.set_last_user(dst, user);
        // Lazy reinstall: both translations refill from the segment
        // structures on the next reference.
        self.mapping.remove(seg, page);
        self.tlb.invalidate(seg, page);
        self.mapping.remove(dst_seg, dst_pg);
        self.tlb.invalidate(dst_seg, dst_pg);

        self.stats.tier_migrations += 1;
        let from_tier = self.tiers.tier_of(src);
        let to_tier = self.tiers.tier_of(dst);
        if from_tier.is_promotion_to(to_tier) {
            self.stats.tier_promotions += 1;
        }
        self.clock.advance(self.costs.page_copy_4k);
        self.charge_tier_access(dst);
        self.trace(EventKind::TierMigrated {
            segment: seg.0 as u64,
            page: page.as_u64(),
            from_tier: from_tier.code(),
            to_tier: to_tier.code(),
        });
        Ok(())
    }

    // ----- ModifyPageFlags / GetPageAttributes --------------------------------

    /// `ModifyPageFlags`: applies `set`/`clear` to `count` pages starting
    /// at `page`. All pages must be resident.
    ///
    /// # Errors
    ///
    /// [`KernelError::PageNotPresent`] on the first missing page (earlier
    /// pages stay modified), plus the usual range/segment errors.
    pub fn modify_page_flags(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), KernelError> {
        self.stats.crossings += 1;
        let call = self.costs.kernel_call;
        self.modify_page_flags_at(seg, page, count, set, clear, call)
    }

    /// [`Kernel::modify_page_flags`] with a caller-supplied call-entry
    /// cost (see [`Kernel::migrate_pages`]'s `_at` variant). One kernel
    /// call total: the base + per-page service cost is charged here, the
    /// entry cost exactly once by the caller (pinned by
    /// `single_kernel_call_charged_per_modify` in
    /// tests/properties_ring.rs).
    fn modify_page_flags_at(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
        call_cost: Micros,
    ) -> Result<(), KernelError> {
        self.stats.modify_calls += 1;
        self.clock.advance(
            call_cost + self.costs.modify_flags_base + self.costs.modify_flags_per_page * count,
        );
        for i in 0..count {
            let p = page.offset(i);
            let (oseg, opage) = match self.resolve(seg, p, false)? {
                Resolved::Own { segment, page, .. } => (segment, page),
                Resolved::CowPending { .. } => {
                    return Err(KernelError::PageNotPresent {
                        segment: seg,
                        page: p,
                    })
                }
            };
            match self.segment_mut(oseg)?.entry_mut(opage) {
                Some(e) => e.flags = e.flags.apply(set, clear),
                None => {
                    return Err(KernelError::PageNotPresent {
                        segment: oseg,
                        page: opage,
                    })
                }
            }
            self.tlb.invalidate(oseg, opage);
        }
        self.trace(EventKind::FlagChange {
            segment: seg.0 as u64,
            page: page.as_u64(),
            pages: count,
            flags: set.bits(),
        });
        Ok(())
    }

    /// `GetPageAttributes`: returns flags and physical frame addresses for
    /// `count` pages starting at `page`. Missing pages are reported with
    /// `present == false` rather than an error, so managers can scan.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownSegment`], [`KernelError::PageOutOfRange`].
    pub fn get_page_attributes(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
    ) -> Result<Vec<PageAttributes>, KernelError> {
        self.stats.crossings += 1;
        self.stats.get_attr_calls += 1;
        self.clock.advance(self.costs.get_page_attributes(count));
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            out.push(self.page_attribute(seg, page.offset(i))?);
        }
        Ok(out)
    }

    /// `GetPageAttributes` for the single page `page`, returned by value:
    /// the same charge, crossing and call count as
    /// [`Kernel::get_page_attributes`] with a count of one, without
    /// allocating. This is a clock hand's probe.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::get_page_attributes`].
    pub fn get_page_attribute(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<PageAttributes, KernelError> {
        self.stats.crossings += 1;
        self.stats.get_attr_calls += 1;
        self.clock.advance(self.costs.get_page_attributes(1));
        self.page_attribute(seg, page)
    }

    fn page_attribute(&self, seg: SegmentId, p: PageNumber) -> Result<PageAttributes, KernelError> {
        let (segment, op, cow) = match self.resolve(seg, p, false)? {
            Resolved::Own {
                segment, page: op, ..
            } => (segment, op, false),
            Resolved::CowPending {
                source_segment,
                source_page,
                ..
            } => (source_segment, source_page, true),
        };
        Ok(match self.segment(segment)?.entry(op) {
            // An unbroken COW page reports the (read-only view of the)
            // source frame.
            Some(e) => PageAttributes {
                page: p,
                present: true,
                flags: if cow {
                    e.flags - PageFlags::WRITE
                } else {
                    e.flags
                },
                frame: Some(e.frame),
            },
            None => PageAttributes {
                page: p,
                present: false,
                flags: PageFlags::empty(),
                frame: None,
            },
        })
    }

    // ----- data access ---------------------------------------------------------

    /// Copies bytes out of a segment (a CPU load, or a manager staging a
    /// page for writeback). All covered pages must be resident and
    /// readable, else the first fault is returned.
    ///
    /// No time is charged: load/store time belongs to the workload's
    /// compute model, and manager copies charge explicitly via
    /// [`Kernel::charge`].
    ///
    /// # Errors
    ///
    /// Range and segment errors as for [`Kernel::reference`].
    pub fn load(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<AccessOutcome, KernelError> {
        Ok(self
            .read_bytes(seg, offset, buf)?
            .map_or(AccessOutcome::Completed, AccessOutcome::Fault))
    }

    /// Copies bytes into a segment (a CPU store, or a manager filling a
    /// page). All covered pages must be resident and writable.
    ///
    /// # Errors
    ///
    /// Range and segment errors as for [`Kernel::reference`].
    pub fn store(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<AccessOutcome, KernelError> {
        Ok(self
            .write_bytes(seg, offset, buf)?
            .map_or(AccessOutcome::Completed, AccessOutcome::Fault))
    }

    /// A load's references and copy: `Ok(Some(fault))` is the first fault,
    /// and then no byte has moved. This, [`Self::write_bytes`] and
    /// [`Self::access_bytes`] are inlined into their callers: returning
    /// a [`Span`] through memory across the calls cost a one-page load
    /// more host time than the second resolve it saves.
    #[inline(always)]
    fn read_bytes(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<Option<FaultEvent>, KernelError> {
        match self.access_bytes(seg, offset, buf.len() as u64, AccessKind::Read)? {
            Span::Fault(fault) => return Ok(Some(fault)),
            Span::OnePage { frame, in_page } => self.frames.read(frame, in_page as usize, buf),
            Span::Pages => self.copy_bytes_out(seg, offset, buf)?,
        }
        Ok(None)
    }

    /// A store's references and copy, as [`Self::read_bytes`].
    #[inline(always)]
    fn write_bytes(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<Option<FaultEvent>, KernelError> {
        match self.access_bytes(seg, offset, buf.len() as u64, AccessKind::Write)? {
            Span::Fault(fault) => return Ok(Some(fault)),
            Span::OnePage { frame, in_page } => self.frames.write(frame, in_page as usize, buf),
            Span::Pages => self.copy_bytes_in(seg, offset, buf)?,
        }
        Ok(None)
    }

    /// References every page covering `[offset, offset+len)`, stopping at
    /// the first fault, so no byte moves unless every page is accessible.
    /// A range within one page comes back with the frame its reference
    /// resolved to, ready to copy; a longer one is copied page by page.
    #[inline(always)]
    fn access_bytes(
        &mut self,
        seg: SegmentId,
        offset: u64,
        len: u64,
        access: AccessKind,
    ) -> Result<Span, KernelError> {
        if len == 0 {
            return Ok(Span::Pages);
        }
        let first = offset / BASE_PAGE_SIZE;
        let in_page = offset % BASE_PAGE_SIZE;
        if in_page + len <= BASE_PAGE_SIZE {
            let referenced = self.reference_frame(seg, PageNumber(first), access)?;
            return Ok(match referenced {
                Referenced::Completed(frame) => Span::OnePage { frame, in_page },
                Referenced::Fault(fault) => Span::Fault(fault),
            });
        }
        for p in first..=(offset + len - 1) / BASE_PAGE_SIZE {
            if let Referenced::Fault(fault) = self.reference_frame(seg, PageNumber(p), access)? {
                return Ok(Span::Fault(fault));
            }
        }
        Ok(Span::Pages)
    }

    fn copy_bytes_out(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        let mut done = 0u64;
        let len = buf.len() as u64;
        while done < len {
            let off = offset + done;
            let page = PageNumber(off / BASE_PAGE_SIZE);
            let in_page = off % BASE_PAGE_SIZE;
            let chunk = (BASE_PAGE_SIZE - in_page).min(len - done);
            let (oseg, opage) = match self.resolve(seg, page, false)? {
                Resolved::Own { segment, page, .. } => (segment, page),
                Resolved::CowPending {
                    source_segment,
                    source_page,
                    ..
                } => (source_segment, source_page),
            };
            let entry = self
                .segment(oseg)?
                .entry(opage)
                .ok_or(KernelError::PageNotPresent {
                    segment: oseg,
                    page: opage,
                })?;
            self.frames.read(
                entry.frame,
                in_page as usize,
                &mut buf[done as usize..(done + chunk) as usize],
            );
            done += chunk;
        }
        Ok(())
    }

    fn copy_bytes_in(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<(), KernelError> {
        let mut done = 0u64;
        let len = buf.len() as u64;
        while done < len {
            let off = offset + done;
            let page = PageNumber(off / BASE_PAGE_SIZE);
            let in_page = off % BASE_PAGE_SIZE;
            let chunk = (BASE_PAGE_SIZE - in_page).min(len - done);
            let (oseg, opage) = match self.resolve(seg, page, true)? {
                Resolved::Own { segment, page, .. } => (segment, page),
                Resolved::CowPending { .. } => {
                    // store() only runs after reference() succeeded, which
                    // would have broken the COW share.
                    return Err(KernelError::PageNotPresent { segment: seg, page });
                }
            };
            let entry = self
                .segment(oseg)?
                .entry(opage)
                .ok_or(KernelError::PageNotPresent {
                    segment: oseg,
                    page: opage,
                })?;
            self.frames.write(
                entry.frame,
                in_page as usize,
                &buf[done as usize..(done + chunk) as usize],
            );
            done += chunk;
        }
        Ok(())
    }

    /// Reads the first 4 KB of one resident page on behalf of its
    /// manager, regardless of the page's protection flags, as a shared
    /// [`Block`] handle rather than a copy. A V++ manager has the page's
    /// frame mapped into its own address space (the free-page segment is
    /// "mapped into the manager's address space so the manager can
    /// directly copy data to and from the page frames"), so protection
    /// aimed at the application does not bind it. A page reached through
    /// a bound region (copy-on-write or not) resolves to the region's
    /// target page, as a load does. No time is charged: the manager
    /// charges the copy it models.
    ///
    /// # Errors
    ///
    /// [`KernelError::PageNotPresent`] and the usual range errors.
    pub fn manager_read_block(
        &self,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Block, KernelError> {
        let (oseg, opage) = match self.resolve(seg, page, false)? {
            Resolved::Own { segment, page, .. } => (segment, page),
            Resolved::CowPending {
                source_segment,
                source_page,
                ..
            } => (source_segment, source_page),
        };
        let entry = self
            .segment(oseg)?
            .entry(opage)
            .ok_or(KernelError::PageNotPresent {
                segment: oseg,
                page: opage,
            })?;
        Ok(self.frames.block(entry.frame))
    }

    /// Makes `block` the first 4 KB of one resident page on behalf of its
    /// manager (page fill before migration), regardless of protection
    /// flags, by sharing it rather than copying it. The page resolves as
    /// for [`Kernel::manager_read_block`]. Does not change the page's
    /// flags — migration applies the final flags. No time is charged.
    ///
    /// # Errors
    ///
    /// [`KernelError::PageNotPresent`] and the usual range errors.
    pub fn manager_write_block(
        &mut self,
        seg: SegmentId,
        page: PageNumber,
        block: Block,
    ) -> Result<(), KernelError> {
        let (oseg, opage) = match self.resolve(seg, page, false)? {
            Resolved::Own { segment, page, .. } => (segment, page),
            Resolved::CowPending { .. } => {
                return Err(KernelError::PageNotPresent { segment: seg, page })
            }
        };
        let entry = self
            .segment(oseg)?
            .entry(opage)
            .ok_or(KernelError::PageNotPresent {
                segment: oseg,
                page: opage,
            })?;
        self.frames.set_block(entry.frame, block);
        Ok(())
    }

    // ----- UIO block interface ---------------------------------------------------

    /// UIO block read from a cached-file segment. Charges the calibrated
    /// V++ read cost per 4 KB block (Table 1: 222 µs for one block).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotAFile`] if `seg` is not a cached file, plus the
    /// usual range/segment errors.
    pub fn uio_read(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<AccessOutcome, KernelError> {
        self.stats.crossings += 1;
        self.require_file(seg)?;
        let blocks = block_count(buf.len() as u64);
        match self.read_bytes(seg, offset, buf)? {
            Some(fault) => Ok(AccessOutcome::Fault(fault)),
            None => {
                self.stats.uio_reads += blocks;
                self.clock.advance(
                    self.costs.kernel_call
                        + (self.costs.uio_lookup_read + self.costs.page_copy_4k) * blocks,
                );
                self.trace(EventKind::UioRead {
                    segment: seg.0 as u64,
                    offset,
                    len: buf.len() as u64,
                });
                Ok(AccessOutcome::Completed)
            }
        }
    }

    /// UIO block write to a cached-file segment. Charges the calibrated
    /// V++ write cost per 4 KB block (Table 1: 203 µs for one block). The
    /// covered pages are marked dirty.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::uio_read`].
    pub fn uio_write(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<AccessOutcome, KernelError> {
        self.stats.crossings += 1;
        self.require_file(seg)?;
        let blocks = block_count(buf.len() as u64);
        match self.write_bytes(seg, offset, buf)? {
            Some(fault) => Ok(AccessOutcome::Fault(fault)),
            None => {
                self.stats.uio_writes += blocks;
                self.clock.advance(
                    self.costs.kernel_call
                        + (self.costs.uio_lookup_write + self.costs.page_copy_4k) * blocks,
                );
                self.trace(EventKind::UioWrite {
                    segment: seg.0 as u64,
                    offset,
                    len: buf.len() as u64,
                });
                Ok(AccessOutcome::Completed)
            }
        }
    }

    fn require_file(&self, seg: SegmentId) -> Result<(), KernelError> {
        match self.segment(seg)?.kind() {
            SegmentKind::CachedFile(_) => Ok(()),
            _ => Err(KernelError::NotAFile(seg)),
        }
    }

    // ----- manager ABI (submission/completion rings) -----------------------

    /// Consumes queued submissions from `sq` and posts one completion per
    /// consumed entry to `cq` — the kernel side of the manager ABI (see
    /// [`crate::ring`]).
    ///
    /// Cost model: the whole batch crosses the protection boundary once.
    /// One `kernel_call` is charged for the doorbell, then every executed
    /// operation is charged its service cost *without* its own
    /// `kernel_call` entry — so relative to the equivalent sequence of
    /// synchronous calls, a batch of `n` operations saves exactly
    /// `kernel_call × (n - 1)` of virtual time and `n - 1` crossings
    /// (pinned by the billing property in tests/properties_ring.rs). The
    /// fault-path IPC legs (`fault_dispatch_ipc` + `ipc_reply`) are
    /// charged once per upcall by the machine layer.
    ///
    /// Execution is strict FIFO and stops at the first failing
    /// operation: its error is posted, every remaining consumed entry is
    /// posted as [`CompletionEntry::Cancelled`] without executing — the
    /// same prefix of operations takes effect as when a synchronous
    /// caller stops at the first error.
    ///
    /// At most [`CompletionRing::free`] entries are consumed, so every
    /// consumed submission is guaranteed its completion slot; excess
    /// submissions stay queued for a later drain (backpressure, never
    /// loss). An empty drain — nothing queued or no completion space —
    /// charges nothing and counts nothing.
    ///
    /// Returns the number of submissions consumed.
    pub fn drain_ring(&mut self, sq: &mut SubmissionRing, cq: &mut CompletionRing) -> usize {
        let budget = sq.len().min(cq.free());
        if budget == 0 {
            return 0;
        }
        self.ring_doorbell();
        let mut failed = false;
        for _ in 0..budget {
            let entry = sq.pop().expect("budget bounded by sq.len()");
            let completion = if failed {
                CompletionEntry::Cancelled { token: entry.token }
            } else {
                let result = self.execute_ring_op(entry.op);
                failed = result.is_err();
                CompletionEntry::Op {
                    token: entry.token,
                    result,
                }
            };
            cq.push(completion).expect("budget bounded by cq.free()");
        }
        budget
    }

    /// A singleton batch without the queues: the doorbell, then `op`, at
    /// exactly the cost and counts a [`Kernel::drain_ring`] of a ring
    /// holding only `op` has.
    pub(crate) fn call_ring_op(&mut self, op: RingOp) -> Result<(), KernelError> {
        self.ring_doorbell();
        self.execute_ring_op(op)
    }

    /// One batch's entry into the kernel: one crossing, one `kernel_call`.
    fn ring_doorbell(&mut self) {
        self.stats.ring_batches += 1;
        self.stats.crossings += 1;
        self.clock.advance(self.costs.kernel_call);
    }

    /// Executes and counts one ring operation at its service cost (no
    /// `kernel_call` entry charge — the batch's doorbell already paid it).
    fn execute_ring_op(&mut self, op: RingOp) -> Result<(), KernelError> {
        self.stats.ring_ops += 1;
        match op {
            RingOp::MigratePages {
                src,
                dst,
                src_page,
                dst_page,
                count,
                set,
                clear,
            } => self.migrate_pages_at(
                src,
                dst,
                src_page,
                dst_page,
                count,
                set,
                clear,
                Micros::ZERO,
            ),
            RingOp::ModifyPageFlags {
                seg,
                page,
                count,
                set,
                clear,
            } => self.modify_page_flags_at(seg, page, count, set, clear, Micros::ZERO),
            RingOp::MigrateFrame { seg, page, dst } => {
                self.migrate_frame_at(seg, page, dst, Micros::ZERO)
            }
        }
    }
}

fn block_count(len: u64) -> u64 {
    len.div_ceil(BASE_PAGE_SIZE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(64)
    }

    fn anon_segment(k: &mut Kernel, pages: u64) -> SegmentId {
        k.create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), pages)
            .unwrap()
    }

    /// Allocate `n` frames from the boot pool into `seg` at `page`.
    fn alloc(k: &mut Kernel, seg: SegmentId, page: u64, n: u64) {
        // Find n consecutive present boot pages.
        let boot = SegmentId::FRAME_POOL;
        let mut found = None;
        let resident: Vec<u64> = k
            .segment(boot)
            .unwrap()
            .resident()
            .map(|(p, _)| p.as_u64())
            .collect();
        for w in resident.windows(n as usize) {
            if w[w.len() - 1] - w[0] == n - 1 {
                found = Some(w[0]);
                break;
            }
        }
        let start = found.expect("boot pool exhausted");
        k.migrate_pages(
            boot,
            seg,
            PageNumber(start),
            PageNumber(page),
            n,
            PageFlags::RW,
            PageFlags::empty(),
        )
        .unwrap();
    }

    #[test]
    fn boot_segment_holds_all_frames_in_order() {
        let k = kernel();
        let boot = k.segment(SegmentId::FRAME_POOL).unwrap();
        assert_eq!(boot.resident_pages(), 64);
        for (p, e) in boot.resident() {
            assert_eq!(p.as_u64(), e.frame.index() as u64);
            assert_eq!(e.frame.phys_addr(), p.as_u64() * BASE_PAGE_SIZE);
        }
    }

    #[test]
    fn missing_page_faults_to_manager() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 8);
        let out = k.reference(seg, PageNumber(0), AccessKind::Write).unwrap();
        match out {
            AccessOutcome::Fault(f) => {
                assert_eq!(f.kind, FaultKind::Missing);
                assert_eq!(f.segment, seg);
                assert_eq!(f.manager, ManagerId(1));
            }
            AccessOutcome::Completed => panic!("expected fault"),
        }
        assert_eq!(k.stats().faults_missing, 1);
    }

    #[test]
    fn migrate_resolves_fault_and_sets_flags() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 8);
        alloc(&mut k, seg, 0, 1);
        let out = k.reference(seg, PageNumber(0), AccessKind::Write).unwrap();
        assert!(out.is_completed());
        let e = k.segment(seg).unwrap().entry(PageNumber(0)).unwrap();
        assert!(e.flags.contains(PageFlags::DIRTY));
        assert!(e.flags.contains(PageFlags::REFERENCED));
        // The frame left the boot pool.
        assert_eq!(k.resident_pages(SegmentId::FRAME_POOL).unwrap(), 63);
        assert_eq!(k.frames().owner(e.frame), (seg, PageNumber(0)));
    }

    #[test]
    fn migrate_to_occupied_slot_is_error() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 8);
        alloc(&mut k, seg, 3, 1);
        let err = k
            .migrate_pages(
                SegmentId::FRAME_POOL,
                seg,
                PageNumber(1),
                PageNumber(3),
                1,
                PageFlags::RW,
                PageFlags::empty(),
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::DestinationOccupied { .. }));
    }

    #[test]
    fn migrate_missing_source_is_error() {
        let mut k = kernel();
        let a = anon_segment(&mut k, 8);
        let b = anon_segment(&mut k, 8);
        let err = k
            .migrate_pages(
                a,
                b,
                PageNumber(0),
                PageNumber(0),
                1,
                PageFlags::empty(),
                PageFlags::empty(),
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::PageNotPresent { .. }));
    }

    #[test]
    fn frame_conservation_over_migrations() {
        let mut k = kernel();
        let a = anon_segment(&mut k, 16);
        let b = anon_segment(&mut k, 16);
        alloc(&mut k, a, 0, 8);
        k.migrate_pages(
            a,
            b,
            PageNumber(0),
            PageNumber(4),
            4,
            PageFlags::empty(),
            PageFlags::empty(),
        )
        .unwrap();
        let total = k.resident_pages(SegmentId::FRAME_POOL).unwrap()
            + k.resident_pages(a).unwrap()
            + k.resident_pages(b).unwrap();
        assert_eq!(total, 64);
        assert_eq!(k.resident_pages(a).unwrap(), 4);
        assert_eq!(k.resident_pages(b).unwrap(), 4);
    }

    #[test]
    fn protection_fault_carries_flags() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 1);
        // Revoke write.
        k.modify_page_flags(seg, PageNumber(0), 1, PageFlags::empty(), PageFlags::WRITE)
            .unwrap();
        let out = k.reference(seg, PageNumber(0), AccessKind::Write).unwrap();
        match out {
            AccessOutcome::Fault(f) => match f.kind {
                FaultKind::Protection { flags } => assert!(flags.contains(PageFlags::READ)),
                other => panic!("expected protection fault, got {other}"),
            },
            AccessOutcome::Completed => panic!("expected fault"),
        }
        // Reads still fine.
        assert!(k
            .reference(seg, PageNumber(0), AccessKind::Read)
            .unwrap()
            .is_completed());
    }

    #[test]
    fn bound_region_forwards_reference_and_migration() {
        let mut k = kernel();
        let file = anon_segment(&mut k, 16); // stands in for a data segment
        let aspace = k
            .create_segment(SegmentKind::AddressSpace, UserId::SYSTEM, ManagerId(1), 32)
            .unwrap();
        k.bind_region(
            aspace,
            PageNumber(8),
            8,
            file,
            PageNumber(0),
            false,
            PageFlags::RW,
        )
        .unwrap();
        // Fault through the binding names the *target* segment.
        let out = k
            .reference(aspace, PageNumber(10), AccessKind::Read)
            .unwrap();
        match out {
            AccessOutcome::Fault(f) => {
                assert_eq!(f.segment, file);
                assert_eq!(f.page, PageNumber(2));
                assert_eq!(f.via_segment, aspace);
                assert_eq!(f.via_page, PageNumber(10));
            }
            AccessOutcome::Completed => panic!("expected fault"),
        }
        // Migrating to the address-space range lands in the bound segment.
        alloc(&mut k, aspace, 10, 1);
        assert_eq!(k.resident_pages(file).unwrap(), 1);
        assert_eq!(k.resident_pages(aspace).unwrap(), 0);
        assert!(k
            .reference(aspace, PageNumber(10), AccessKind::Read)
            .unwrap()
            .is_completed());
    }

    #[test]
    fn cow_read_through_then_write_breaks() {
        let mut k = kernel();
        let source = anon_segment(&mut k, 8);
        alloc(&mut k, source, 0, 2);
        assert!(k.store(source, 0, b"original").unwrap().is_completed());
        let child = anon_segment(&mut k, 8);
        k.bind_region(
            child,
            PageNumber(0),
            2,
            source,
            PageNumber(0),
            true,
            PageFlags::RW,
        )
        .unwrap();
        // Reads pass through.
        assert!(k
            .reference(child, PageNumber(0), AccessKind::Read)
            .unwrap()
            .is_completed());
        let mut buf = [0u8; 8];
        assert!(k.load(child, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"original");
        // Write faults with CopyOnWrite naming the source.
        let out = k
            .reference(child, PageNumber(0), AccessKind::Write)
            .unwrap();
        match out {
            AccessOutcome::Fault(f) => {
                assert_eq!(f.segment, child);
                assert_eq!(
                    f.kind,
                    FaultKind::CopyOnWrite {
                        source_segment: source,
                        source_page: PageNumber(0),
                    }
                );
            }
            AccessOutcome::Completed => panic!("expected COW fault"),
        }
        // Manager supplies a frame: kernel performs the copy.
        alloc(&mut k, child, 0, 1);
        assert_eq!(k.stats().cow_copies, 1);
        assert!(k
            .reference(child, PageNumber(0), AccessKind::Write)
            .unwrap()
            .is_completed());
        assert!(k.store(child, 0, b"modified").unwrap().is_completed());
        // Source is unchanged; child sees its own copy.
        assert!(k.load(source, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"original");
        assert!(k.load(child, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"modified");
    }

    #[test]
    fn cow_write_requires_source_data_first() {
        let mut k = kernel();
        let source = anon_segment(&mut k, 4);
        let child = anon_segment(&mut k, 4);
        k.bind_region(
            child,
            PageNumber(0),
            4,
            source,
            PageNumber(0),
            true,
            PageFlags::RW,
        )
        .unwrap();
        // Source has no data: the missing fault targets the source segment.
        let out = k
            .reference(child, PageNumber(1), AccessKind::Write)
            .unwrap();
        match out {
            AccessOutcome::Fault(f) => {
                assert_eq!(f.segment, source);
                assert_eq!(f.kind, FaultKind::Missing);
            }
            AccessOutcome::Completed => panic!("expected fault"),
        }
    }

    #[test]
    fn binding_cycle_rejected() {
        let mut k = kernel();
        let a = anon_segment(&mut k, 8);
        let b = anon_segment(&mut k, 8);
        k.bind_region(a, PageNumber(0), 4, b, PageNumber(0), false, PageFlags::RW)
            .unwrap();
        let err = k
            .bind_region(b, PageNumber(4), 4, a, PageNumber(4), false, PageFlags::RW)
            .unwrap_err();
        assert!(matches!(err, KernelError::BindingTooDeep(_)));
    }

    #[test]
    fn migrate_zeroes_across_users() {
        let mut k = kernel();
        let alice = k
            .create_segment(SegmentKind::Anonymous, UserId(1), ManagerId(1), 4)
            .unwrap();
        let bob = k
            .create_segment(SegmentKind::Anonymous, UserId(2), ManagerId(1), 4)
            .unwrap();
        alloc(&mut k, alice, 0, 1);
        assert!(k.store(alice, 0, b"secret").unwrap().is_completed());
        let zero_before = k.stats().zero_fills;
        k.migrate_pages(
            alice,
            bob,
            PageNumber(0),
            PageNumber(0),
            1,
            PageFlags::RW,
            PageFlags::empty(),
        )
        .unwrap();
        assert_eq!(k.stats().zero_fills, zero_before + 1);
        let mut buf = [0u8; 6];
        assert!(k.load(bob, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"\0\0\0\0\0\0");
    }

    #[test]
    fn migrate_same_user_skips_zeroing() {
        let mut k = kernel();
        let a = k
            .create_segment(SegmentKind::Anonymous, UserId(1), ManagerId(1), 4)
            .unwrap();
        let b = k
            .create_segment(SegmentKind::Anonymous, UserId(1), ManagerId(1), 4)
            .unwrap();
        alloc(&mut k, a, 0, 1);
        // Boot pool is SYSTEM so the first migration zero-fills...
        let base = k.stats().zero_fills;
        assert!(k.store(a, 0, b"keep").unwrap().is_completed());
        k.migrate_pages(
            a,
            b,
            PageNumber(0),
            PageNumber(0),
            1,
            PageFlags::RW,
            PageFlags::empty(),
        )
        .unwrap();
        // ...but same-user migration preserves contents (V++'s saving).
        assert_eq!(k.stats().zero_fills, base);
        let mut buf = [0u8; 4];
        assert!(k.load(b, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"keep");
    }

    #[test]
    fn uio_roundtrip_and_costs() {
        let mut k = kernel();
        let file = k
            .create_segment(
                SegmentKind::CachedFile(epcm_sim::disk::FileId::from_raw(0)),
                UserId::SYSTEM,
                ManagerId(1),
                4,
            )
            .unwrap();
        alloc(&mut k, file, 0, 1);
        let t0 = k.now();
        let mut buf = vec![0u8; 4096];
        assert!(k.uio_read(file, 0, &mut buf).unwrap().is_completed());
        let read_cost = k.now().duration_since(t0);
        assert_eq!(read_cost, k.costs().vpp_read_4k());
        let t1 = k.now();
        assert!(k.uio_write(file, 0, &buf).unwrap().is_completed());
        assert_eq!(k.now().duration_since(t1), k.costs().vpp_write_4k());
        // Dirty after write.
        let e = k.segment(file).unwrap().entry(PageNumber(0)).unwrap();
        assert!(e.flags.contains(PageFlags::DIRTY));
    }

    #[test]
    fn uio_on_non_file_is_error() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        let mut buf = [0u8; 16];
        assert!(matches!(
            k.uio_read(seg, 0, &mut buf).unwrap_err(),
            KernelError::NotAFile(_)
        ));
    }

    #[test]
    fn uio_missing_page_faults() {
        let mut k = kernel();
        let file = k
            .create_segment(
                SegmentKind::CachedFile(epcm_sim::disk::FileId::from_raw(0)),
                UserId::SYSTEM,
                ManagerId(1),
                4,
            )
            .unwrap();
        let mut buf = vec![0u8; 4096];
        match k.uio_read(file, 0, &mut buf).unwrap() {
            AccessOutcome::Fault(f) => assert_eq!(f.kind, FaultKind::Missing),
            AccessOutcome::Completed => panic!("expected fault"),
        }
    }

    #[test]
    fn get_attributes_reports_missing_and_present() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 1, 1);
        let attrs = k.get_page_attributes(seg, PageNumber(0), 3).unwrap();
        assert_eq!(attrs.len(), 3);
        assert!(!attrs[0].present);
        assert!(attrs[1].present);
        assert!(attrs[1].phys_addr().is_some());
        assert!(!attrs[2].present);
    }

    #[test]
    fn get_page_attribute_is_a_one_page_scan() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 1, 1);
        for p in 0..3 {
            let (t0, s0) = (k.now(), k.stats());
            let scanned = k.get_page_attributes(seg, PageNumber(p), 1).unwrap()[0];
            let (t1, s1) = (k.now(), k.stats());
            let single = k.get_page_attribute(seg, PageNumber(p)).unwrap();
            let s2 = k.stats();
            assert_eq!(single, scanned);
            assert_eq!(k.now().duration_since(t1), t1.duration_since(t0));
            assert_eq!(s2.crossings - s1.crossings, s1.crossings - s0.crossings);
            assert_eq!(
                s2.get_attr_calls - s1.get_attr_calls,
                s1.get_attr_calls - s0.get_attr_calls
            );
        }
        assert!(matches!(
            k.get_page_attribute(seg, PageNumber(9)),
            Err(KernelError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn manager_block_calls_share_but_never_alias() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 1);
        assert!(k.store(seg, 0, b"abc").unwrap().is_completed());
        let before = k.now();
        let read = k.manager_read_block(seg, PageNumber(0)).unwrap();
        assert_eq!(&read.as_slice()[..3], b"abc");
        // A store after the read leaves the manager's handle as it was.
        assert!(k.store(seg, 0, b"x").unwrap().is_completed());
        assert_eq!(&read.as_slice()[..3], b"abc");
        // A written block is shared, and a store breaks the share.
        let mut outside = Block::zeroed();
        outside.make_mut()[..4].copy_from_slice(b"fill");
        k.manager_write_block(seg, PageNumber(0), outside.clone())
            .unwrap();
        let mut buf = [0u8; 4];
        assert!(k.load(seg, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"fill");
        assert!(k.store(seg, 0, b"F").unwrap().is_completed());
        assert_eq!(&outside.as_slice()[..4], b"fill");
        assert_eq!(k.now(), before, "block calls charge nothing");
        // A missing page is an error either way.
        assert!(matches!(
            k.manager_read_block(seg, PageNumber(1)),
            Err(KernelError::PageNotPresent { .. })
        ));
        assert!(matches!(
            k.manager_write_block(seg, PageNumber(1), Block::zeroed()),
            Err(KernelError::PageNotPresent { .. })
        ));
    }

    #[test]
    fn manager_block_calls_follow_cow_rules() {
        let mut k = kernel();
        let source = anon_segment(&mut k, 2);
        alloc(&mut k, source, 0, 1);
        assert!(k.store(source, 0, b"src").unwrap().is_completed());
        let child = anon_segment(&mut k, 2);
        k.bind_region(
            child,
            PageNumber(0),
            2,
            source,
            PageNumber(0),
            true,
            PageFlags::RW,
        )
        .unwrap();
        // An unbroken COW page resolves to its source, as a load does.
        let read = k.manager_read_block(child, PageNumber(0)).unwrap();
        assert_eq!(&read.as_slice()[..3], b"src");
        let mut fill = Block::zeroed();
        fill.make_mut()[..3].copy_from_slice(b"new");
        k.manager_write_block(child, PageNumber(0), fill).unwrap();
        let mut buf = [0u8; 3];
        assert!(k.load(source, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"new");
        assert_eq!(
            &read.as_slice()[..3],
            b"src",
            "the earlier read is a snapshot"
        );
        assert_eq!(k.stats().cow_copies, 0);
    }

    #[test]
    fn cow_break_and_frame_exchange_copy_by_value() {
        let mut k = kernel();
        let source = anon_segment(&mut k, 2);
        alloc(&mut k, source, 0, 1);
        assert!(k.store(source, 0, b"one").unwrap().is_completed());
        let child = anon_segment(&mut k, 2);
        k.bind_region(
            child,
            PageNumber(0),
            1,
            source,
            PageNumber(0),
            true,
            PageFlags::RW,
        )
        .unwrap();
        alloc(&mut k, child, 0, 1); // the COW break
        assert_eq!(k.stats().cow_copies, 1);
        // Source and copy each see only their own stores.
        assert!(k.store(source, 0, b"SRC").unwrap().is_completed());
        let mut buf = [0u8; 3];
        assert!(k.load(child, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"one");
        assert!(k.store(child, 0, b"CHD").unwrap().is_completed());
        assert!(k.load(source, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"SRC");

        // MigrateFrame: the page moves to the pool slot's frame, the slot
        // keeps the old frame, and neither sees the other's stores.
        let pool = anon_segment(&mut k, 1);
        alloc(&mut k, pool, 0, 1);
        let dst = k.segment(pool).unwrap().entry(PageNumber(0)).unwrap().frame;
        k.migrate_frame(source, PageNumber(0), dst).unwrap();
        assert!(k.store(source, 0, b"new").unwrap().is_completed());
        assert!(k.load(pool, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"SRC");
        assert!(k.store(pool, 0, b"old").unwrap().is_completed());
        assert!(k.load(source, 0, &mut buf).unwrap().is_completed());
        assert_eq!(&buf, b"new");
    }

    #[test]
    fn modify_flags_set_and_clear() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 2);
        k.modify_page_flags(seg, PageNumber(0), 2, PageFlags::PINNED, PageFlags::WRITE)
            .unwrap();
        for p in 0..2 {
            let e = k.segment(seg).unwrap().entry(PageNumber(p)).unwrap();
            assert!(e.flags.contains(PageFlags::PINNED));
            assert!(!e.flags.contains(PageFlags::WRITE));
        }
        // Missing page errors.
        assert!(matches!(
            k.modify_page_flags(seg, PageNumber(3), 1, PageFlags::READ, PageFlags::empty())
                .unwrap_err(),
            KernelError::PageNotPresent { .. }
        ));
    }

    #[test]
    fn destroy_requires_empty() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 1);
        assert!(matches!(
            k.destroy_segment(seg).unwrap_err(),
            KernelError::DestinationOccupied { .. }
        ));
        k.migrate_pages(
            seg,
            SegmentId::FRAME_POOL,
            PageNumber(0),
            PageNumber(0),
            1,
            PageFlags::empty(),
            PageFlags::empty(),
        )
        .unwrap();
        k.destroy_segment(seg).unwrap();
        assert!(matches!(
            k.segment(seg).unwrap_err(),
            KernelError::UnknownSegment(_)
        ));
    }

    #[test]
    fn boot_segment_is_immutable() {
        let mut k = kernel();
        assert!(matches!(
            k.destroy_segment(SegmentId::FRAME_POOL).unwrap_err(),
            KernelError::BootSegmentImmutable
        ));
        assert!(matches!(
            k.resize_segment(SegmentId::FRAME_POOL, 1).unwrap_err(),
            KernelError::BootSegmentImmutable
        ));
    }

    #[test]
    fn resize_grow_and_blocked_shrink() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        k.resize_segment(seg, 16).unwrap();
        assert_eq!(k.segment(seg).unwrap().size_pages(), 16);
        alloc(&mut k, seg, 10, 1);
        assert!(matches!(
            k.resize_segment(seg, 8).unwrap_err(),
            KernelError::DestinationOccupied { .. }
        ));
        k.resize_segment(seg, 11).unwrap();
    }

    #[test]
    fn reference_out_of_range_is_error_not_fault() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        assert!(matches!(
            k.reference(seg, PageNumber(4), AccessKind::Read)
                .unwrap_err(),
            KernelError::PageOutOfRange { .. }
        ));
    }

    #[test]
    fn set_segment_manager_reroutes_faults() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        k.set_segment_manager(seg, ManagerId(9)).unwrap();
        match k.reference(seg, PageNumber(0), AccessKind::Read).unwrap() {
            AccessOutcome::Fault(f) => assert_eq!(f.manager, ManagerId(9)),
            AccessOutcome::Completed => panic!("expected fault"),
        }
    }

    #[test]
    fn load_store_roundtrip_across_page_boundary() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 2);
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        assert!(k.store(seg, 100, &data).unwrap().is_completed());
        let mut buf = vec![0u8; 5000];
        assert!(k.load(seg, 100, &mut buf).unwrap().is_completed());
        assert_eq!(buf, data);
    }

    #[test]
    fn clock_charges_accumulate() {
        let mut k = kernel();
        let t0 = k.now();
        let seg = anon_segment(&mut k, 4);
        assert!(k.now() > t0, "create_segment charges time");
        let before = k.now();
        alloc(&mut k, seg, 0, 1);
        let cost = k.now().duration_since(before);
        assert_eq!(cost, k.costs().migrate_pages(1));
    }

    #[test]
    fn mapping_table_fills_on_reference() {
        let mut k = kernel();
        let seg = anon_segment(&mut k, 4);
        alloc(&mut k, seg, 0, 1);
        assert!(k
            .reference(seg, PageNumber(0), AccessKind::Read)
            .unwrap()
            .is_completed());
        assert!(k
            .reference(seg, PageNumber(0), AccessKind::Read)
            .unwrap()
            .is_completed());
        let ms = k.mapping_stats();
        assert!(ms.direct_hits >= 1, "second reference hits the table");
    }
}

#[cfg(test)]
mod data_access_tests {
    //! `load` and `store` copy a one-page range through the frame its
    //! reference resolved to. These tests pin every shape of access to the
    //! path that came before: reference each covered page, stopping at the
    //! first fault, then copy, resolving each page again.
    use super::*;

    /// The access as it was, on `k`: the bytes `load` returned into `buf`
    /// or `store` wrote from it.
    fn old_access(
        k: &mut Kernel,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
        access: AccessKind,
    ) -> Result<AccessOutcome, KernelError> {
        if !buf.is_empty() {
            let last = (offset + buf.len() as u64 - 1) / BASE_PAGE_SIZE;
            for p in offset / BASE_PAGE_SIZE..=last {
                if let AccessOutcome::Fault(f) = k.reference(seg, PageNumber(p), access)? {
                    return Ok(AccessOutcome::Fault(f));
                }
            }
        }
        match access {
            AccessKind::Read => k.copy_bytes_out(seg, offset, buf)?,
            AccessKind::Write => k.copy_bytes_in(seg, offset, buf)?,
        }
        Ok(AccessOutcome::Completed)
    }

    fn new_access(
        k: &mut Kernel,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
        access: AccessKind,
    ) -> Result<AccessOutcome, KernelError> {
        match access {
            AccessKind::Read => k.load(seg, offset, buf),
            AccessKind::Write => k.store(seg, offset, buf),
        }
    }

    /// Everything an access can change: counters, clock, translation
    /// caches, every resident page's frame and flags, every frame's bytes.
    fn observe(k: &Kernel) -> impl PartialEq + std::fmt::Debug {
        let pages: Vec<_> = k
            .segment_ids()
            .flat_map(|s| {
                let seg = k.segment(s).unwrap();
                seg.resident()
                    .map(move |(p, e)| (s, p, e.frame, e.flags))
                    .collect::<Vec<_>>()
            })
            .collect();
        let bytes: Vec<Vec<u8>> = k
            .frames()
            .ids()
            .map(|f| {
                let mut data = vec![0u8; BASE_PAGE_SIZE as usize];
                k.frames().read(f, 0, &mut data);
                data
            })
            .collect();
        (
            k.stats(),
            k.now(),
            k.mapping_stats(),
            k.tlb_stats(),
            pages,
            bytes,
        )
    }

    fn boot_to(k: &mut Kernel, seg: SegmentId, boot_page: u64, page: u64, n: u64) {
        k.migrate_pages(
            SegmentId::FRAME_POOL,
            seg,
            PageNumber(boot_page),
            PageNumber(page),
            n,
            PageFlags::RW,
            PageFlags::empty(),
        )
        .unwrap();
    }

    /// A tiered kernel and its segments: `plain` (4 pages: 0 and 1
    /// writable, 2 read-only, 3 missing), and `child`, bound copy-on-write
    /// to `source` over three pages with page 1's share already broken.
    fn world() -> (Kernel, [SegmentId; 3]) {
        let layout = TierLayout::new(16, 16, 32);
        let mut k = Kernel::with_tiers(64, CostModel::decstation_5000_200(), layout);
        let anon = |k: &mut Kernel| {
            k.create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), 4)
                .unwrap()
        };
        let plain = anon(&mut k);
        boot_to(&mut k, plain, 20, 0, 3);
        k.modify_page_flags(
            plain,
            PageNumber(2),
            1,
            PageFlags::empty(),
            PageFlags::WRITE,
        )
        .unwrap();
        let source = anon(&mut k);
        boot_to(&mut k, source, 40, 0, 3);
        let child = anon(&mut k);
        k.bind_region(
            child,
            PageNumber(0),
            3,
            source,
            PageNumber(0),
            true,
            PageFlags::RW,
        )
        .unwrap();
        boot_to(&mut k, child, 44, 1, 1);
        // Distinct bytes in every frame, so a copy from the wrong one shows.
        for f in 0..64u32 {
            let data: Vec<u8> = (0..BASE_PAGE_SIZE as u32)
                .map(|b| (b * 7 + f * 13) as u8)
                .collect();
            k.frames.write(FrameId::from_raw(f), 0, &data);
        }
        (k, [plain, source, child])
    }

    #[test]
    fn one_page_copies_match_the_reference_then_resolve_path() {
        let (mut new, [plain, source, child]) = world();
        let mut old = new.clone();
        let page = BASE_PAGE_SIZE;
        use AccessKind::{Read, Write};
        let cases = [
            (plain, 8, 8, Read),
            (plain, 8, 8, Write),
            (plain, page - 6, 12, Read),     // straddles pages 0 and 1
            (plain, page - 6, 12, Write),    // straddles pages 0 and 1
            (plain, 2 * page - 4, 8, Write), // page 2 is read-only
            (plain, 2 * page + 5, 3, Write), // one read-only page
            (plain, 3 * page - 4, 8, Read),  // page 3 is missing
            (plain, 0, 0, Read),
            (plain, 0, 0, Write),
            (plain, 4 * page, 8, Read),   // out of range
            (child, 16, 8, Read),         // through the unbroken share
            (child, 16, 8, Write),        // breaks nothing: a copy-on-write fault
            (child, page + 16, 8, Write), // the broken share's own copy
            (child, page + 16, 8, Read),
            (child, 2 * page - 4, 8, Read), // broken page 1, then shared page 2
            (child, 2 * page - 4, 8, Write), // copy-on-write fault on page 2
            (source, 16, 8, Read),
            (source, page + 16, 8, Read),
        ];
        for (i, &(seg, offset, len, access)) in cases.iter().enumerate() {
            let fill = |b: usize| (i * 31 + b) as u8 | 1;
            let mut a: Vec<u8> = (0..len as usize).map(fill).collect();
            let mut b = a.clone();
            let got = new_access(&mut new, seg, offset, &mut a, access);
            let want = old_access(&mut old, seg, offset, &mut b, access);
            assert_eq!(got, want, "case {i}");
            assert_eq!(a, b, "case {i}: bytes");
            assert_eq!(observe(&new), observe(&old), "case {i}: kernel");
        }
        // The cases hit each outcome.
        assert!(new.stats().faults_missing > 0);
        assert!(new.stats().faults_protection > 0);
        assert!(new.stats().faults_cow > 0);
        assert!(new.stats().slow_accesses > 0 && new.stats().zram_accesses > 0);
    }
}

#[cfg(test)]
mod boot_tests {
    //! A kernel builds its boot state in one pass: each frame created
    //! owned by the boot segment, and the boot segment's page table and
    //! residency bitmap filled whole. These tests check that state
    //! against a boot segment built page by page with `insert_entry`, as
    //! a migration builds any segment.
    use super::*;

    /// The boot segment of a `frames`-frame machine, one insert per page.
    fn reference_boot(frames: u32) -> Segment {
        let mut boot = Segment::new(
            SegmentId::FRAME_POOL,
            SegmentKind::FramePool,
            UserId::SYSTEM,
            ManagerId::SYSTEM,
            u64::from(frames),
        );
        for f in 0..frames {
            boot.insert_entry(
                PageNumber(u64::from(f)),
                PageEntry {
                    frame: FrameId(f),
                    flags: PageFlags::RW,
                },
            );
        }
        boot
    }

    fn assert_boots_like_the_reference(k: &Kernel) {
        let frames = k.frames().len();
        let reference = reference_boot(u32::try_from(frames).unwrap());
        let boot = k.segment(SegmentId::FRAME_POOL).unwrap();
        assert_eq!(k.segment_ids().collect::<Vec<_>>(), [SegmentId::FRAME_POOL]);
        assert_eq!(boot.kind(), reference.kind());
        assert_eq!(boot.user(), reference.user());
        assert_eq!(boot.manager(), reference.manager());
        assert_eq!(boot.size_pages(), reference.size_pages());
        assert_eq!(boot.resident_pages(), reference.resident_pages());
        assert_eq!(boot.resident_bits(), reference.resident_bits());
        assert!(boot.resident().eq(reference.resident()), "boot entries");
        assert_eq!(boot.entry(PageNumber(frames as u64)), None);
        assert_eq!(boot.first_vacant(), PageNumber(frames as u64));
        for (page, entry) in reference.resident() {
            let f = entry.frame;
            assert_eq!(k.frames().owner(f), (SegmentId::FRAME_POOL, page));
            assert_eq!(k.frames().last_user(f), UserId::SYSTEM);
            assert!(!k.frames().frame(f).is_materialised(), "{f} holds data");
        }
    }

    #[test]
    fn boot_state_matches_a_page_by_page_build() {
        // 32 768 is the paper's machine (`PAPER_FRAMES`).
        for frames in [1, 63, 64, 65, 1000, 32_768] {
            assert_boots_like_the_reference(&Kernel::new(frames));
        }
    }

    #[test]
    fn tiered_boot_state_matches_a_page_by_page_build() {
        let layout = TierLayout::new(40, 17, 8);
        let k = Kernel::with_tiers(65, CostModel::decstation_5000_200(), layout);
        assert_boots_like_the_reference(&k);
        assert_eq!(k.tiers(), &layout);
    }

    #[test]
    fn a_page_past_u32_holds_no_frame() {
        let mut k = Kernel::new(4);
        let big = 1 << 32;
        let seg = k
            .create_segment(SegmentKind::Anonymous, UserId(1), ManagerId(1), big + 1)
            .unwrap();
        let err = k
            .migrate_pages(
                SegmentId::FRAME_POOL,
                seg,
                PageNumber(0),
                PageNumber(big),
                1,
                PageFlags::RW,
                PageFlags::empty(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            KernelError::PageNotAddressable {
                segment: seg,
                page: PageNumber(big),
            }
        );
        assert!(err.to_string().contains("32-bit page range"));
        // Nothing moved: the frame is still the boot segment's.
        assert_eq!(k.resident_pages(seg).unwrap(), 0);
        k.destroy_segment(seg).unwrap();
        assert_boots_like_the_reference(&k);
    }
}
