//! The machine: kernel + backing store + SPCM + segment managers, with the
//! fault-dispatch loop of Figure 2.
//!
//! The kernel never calls managers (see `epcm-core`); instead every
//! application-level access goes through [`Machine`], which retries the
//! access after routing each [`FaultEvent`] to its manager and charging the
//! dispatch costs appropriate to the manager's [`ManagerMode`]:
//!
//! 1. the application references a missing page and traps (`trap_entry`,
//!    charged by the kernel),
//! 2. the kernel forwards the fault to the manager (in-process upcall or
//!    IPC to a server),
//! 3. the manager allocates a frame, fetches data if needed,
//! 4. the manager migrates the frame to the faulting address,
//! 5. the application resumes (directly, or back through the kernel).

use std::collections::BTreeMap;
use std::fmt;

use epcm_core::fault::FaultEvent;
use epcm_core::flags::PageFlags;
use epcm_core::kernel::{AccessOutcome, Kernel, KernelStats};
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{
    AccessKind, ManagerId, PageNumber, SegmentId, SegmentKind, UserId, BASE_PAGE_SIZE,
};
use epcm_core::watchdog::{UpcallKind, UpcallVerdict, Watchdog, WatchdogConfig};
use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::cost::CostModel;
use epcm_sim::disk::{Device, FileId, FileStore, FileStoreError};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::spcm::{AllocationPolicy, SpcmError, SystemPageCacheManager};

/// How many times an access is retried through fault handling before the
/// machine declares a livelock. Each retry means the manager claimed to
/// repair the fault but the access faulted again; legitimate chains (COW
/// needing a source fill first, protection batches) resolve within a few.
pub const MAX_FAULT_RETRIES: u32 = 16;

/// Errors surfaced by machine operations.
#[derive(Debug)]
pub enum MachineError {
    /// The kernel rejected an operation (caller bug, not a fault).
    Kernel(epcm_core::KernelError),
    /// A manager failed to repair a fault.
    Manager {
        /// The fault being serviced.
        fault: FaultEvent,
        /// What the manager reported.
        source: ManagerError,
    },
    /// A manager operation outside fault handling (attach, reclaim,
    /// close, application command) failed.
    ManagerOp {
        /// The manager involved.
        manager: ManagerId,
        /// What it reported.
        source: ManagerError,
    },
    /// A fault named a manager id nobody registered.
    UnknownManager(ManagerId),
    /// The same access faulted [`MAX_FAULT_RETRIES`] times.
    FaultLivelock(FaultEvent),
    /// `open_file` was given a name the store does not know.
    UnknownFile(String),
    /// The SPCM rejected a frame-ledger operation (failover returning a
    /// dead manager's pool frames, or a byzantine over-return).
    Spcm(SpcmError),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Kernel(e) => write!(f, "kernel: {e}"),
            MachineError::Manager { fault, source } => {
                write!(f, "manager failed on {fault}: {source}")
            }
            MachineError::ManagerOp { manager, source } => {
                write!(f, "{manager} operation failed: {source}")
            }
            MachineError::UnknownManager(m) => write!(f, "no registered manager {m}"),
            MachineError::FaultLivelock(fault) => {
                write!(f, "fault not making progress after retries: {fault}")
            }
            MachineError::UnknownFile(name) => write!(f, "no such file {name:?}"),
            MachineError::Spcm(e) => write!(f, "spcm: {e}"),
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Kernel(e) => Some(e),
            MachineError::Manager { source, .. } => Some(source),
            MachineError::ManagerOp { source, .. } => Some(source),
            MachineError::Spcm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<epcm_core::KernelError> for MachineError {
    fn from(e: epcm_core::KernelError) -> Self {
        MachineError::Kernel(e)
    }
}

impl From<SpcmError> for MachineError {
    fn from(e: SpcmError) -> Self {
        MachineError::Spcm(e)
    }
}

/// Aggregate machine statistics (Table 3 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Times any manager was invoked (fault dispatches + segment-close
    /// notifications) — Table 3 column 1.
    pub manager_calls: u64,
    /// Total virtual time spent from trap to resume across all dispatches.
    pub manager_time: Micros,
}

/// Configures and builds a [`Machine`].
///
/// # Example
///
/// ```
/// use epcm_managers::Machine;
/// use epcm_sim::disk::Device;
///
/// let machine = Machine::builder(1024)
///     .device(Device::network_1992())
///     .spcm_reserve(16)
///     .build();
/// assert_eq!(machine.kernel().frames().len(), 1024);
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    frames: usize,
    costs: CostModel,
    device: Device,
    policy: AllocationPolicy,
    reserve: u64,
    tiers: Option<TierLayout>,
    watchdog: Option<WatchdogConfig>,
}

impl MachineBuilder {
    /// Starts a builder for a machine with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        MachineBuilder {
            frames,
            costs: CostModel::decstation_5000_200(),
            device: Device::Instant,
            policy: AllocationPolicy::FirstCome,
            reserve: 0,
            tiers: None,
            watchdog: None,
        }
    }

    /// Partitions the frame pool into physical memory tiers (default:
    /// all DRAM). The layout's total must equal the machine's frame
    /// count.
    pub fn tiers(mut self, tiers: TierLayout) -> Self {
        self.tiers = Some(tiers);
        self
    }

    /// Sets the machine cost model (default: DECstation 5000/200).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the backing-store device model (default: instant, excluding
    /// I/O from measurements as the paper's cached-file runs do).
    pub fn device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Sets the SPCM allocation policy (default: first-come-first-served).
    pub fn allocation(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Frames the SPCM withholds from allocation (default: 0).
    pub fn spcm_reserve(mut self, reserve: u64) -> Self {
        self.reserve = reserve;
        self
    }

    /// Enables the upcall watchdog (default: off). Off by default so
    /// that chaos-free runs carry no watchdog state and their ledgers
    /// stay byte-identical with pre-watchdog builds.
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        Machine {
            kernel: match self.tiers {
                Some(tiers) => Kernel::with_tiers(self.frames, self.costs, tiers),
                None => Kernel::with_costs(self.frames, self.costs),
            },
            store: FileStore::new(self.device),
            spcm: SystemPageCacheManager::new(self.policy, self.reserve),
            managers: BTreeMap::new(),
            next_manager: 1,
            default_manager: None,
            stats: MachineStats::default(),
            event_tracer: None,
            quarantine_seg: None,
            watchdog: self.watchdog.map(Watchdog::new),
        }
    }
}

/// The complete simulated system: V++ kernel, backing store, SPCM and
/// registered segment managers.
///
/// # Example
///
/// ```
/// use epcm_managers::Machine;
/// use epcm_core::{AccessKind, SegmentKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_default_manager(512);
/// let heap = machine.create_segment(SegmentKind::Anonymous, 64)?;
/// machine.touch(heap, 0, AccessKind::Write)?; // minimal fault, resolved
/// assert_eq!(machine.kernel().resident_pages(heap)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    kernel: Kernel,
    store: FileStore,
    spcm: SystemPageCacheManager,
    managers: BTreeMap<u32, Box<dyn SegmentManager>>,
    next_manager: u32,
    default_manager: Option<ManagerId>,
    stats: MachineStats,
    event_tracer: Option<SharedTracer>,
    /// System-owned segment where seized dirty pages that could not be
    /// written back are impounded; created on first use.
    quarantine_seg: Option<SegmentId>,
    /// Deadline enforcement on manager upcalls; `None` (the default)
    /// keeps chaos-free runs byte-identical with pre-watchdog builds.
    watchdog: Option<Watchdog>,
}

/// Write-back attempts the machine itself makes while seizing a dirty
/// page (the evicted manager no longer gets a say).
const SEIZE_RETRY_LIMIT: u32 = 3;

/// Base backoff between machine-level seizure write-back retries;
/// doubles per attempt.
const SEIZE_RETRY_BACKOFF: Micros = Micros::new(500);

impl Machine {
    /// Starts building a machine with `frames` page frames.
    pub fn builder(frames: usize) -> MachineBuilder {
        MachineBuilder::new(frames)
    }

    /// A machine with no managers registered; segments must be created via
    /// [`Machine::create_segment_with`] against explicitly registered
    /// managers.
    pub fn new(frames: usize) -> Self {
        Machine::builder(frames).build()
    }

    /// A machine with the default segment manager (UCDS analog) registered
    /// and serving as the manager for new segments — the configuration
    /// conventional programs see.
    pub fn with_default_manager(frames: usize) -> Self {
        let mut m = Machine::new(frames);
        let mgr = crate::default_manager::DefaultSegmentManager::server();
        let id = m.register_manager(Box::new(mgr));
        m.set_default_manager(id);
        m
    }

    // ----- accessors --------------------------------------------------------

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (tests, custom drivers).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The backing store.
    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Mutable backing store (to create input files for a workload).
    pub fn store_mut(&mut self) -> &mut FileStore {
        &mut self.store
    }

    /// The system page cache manager.
    pub fn spcm(&self) -> &SystemPageCacheManager {
        &self.spcm
    }

    /// Mutable SPCM access (to open market accounts).
    pub fn spcm_mut(&mut self) -> &mut SystemPageCacheManager {
        &mut self.spcm
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.kernel.now()
    }

    /// Machine-level statistics.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Kernel statistics, for convenience.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Turns on the upcall watchdog after construction (equivalent to
    /// [`MachineBuilder::watchdog`]).
    pub fn enable_watchdog(&mut self, config: WatchdogConfig) {
        self.watchdog = Some(Watchdog::new(config));
    }

    /// The upcall watchdog, if enabled.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    // ----- event tracing / unified metrics ---------------------------------

    /// Turns on structured event tracing: one shared ring buffer of
    /// `capacity` events that the kernel, the SPCM/market and every
    /// registered manager (current and future) record into. Returns a
    /// handle to the shared buffer; clones of it observe the same events.
    pub fn enable_event_tracing(&mut self, capacity: usize) -> SharedTracer {
        let tracer = SharedTracer::with_capacity(capacity);
        self.kernel.set_tracer(tracer.clone());
        for mgr in self.managers.values_mut() {
            mgr.set_tracer(tracer.clone());
        }
        self.event_tracer = Some(tracer.clone());
        tracer
    }

    /// The shared event tracer, if tracing is on.
    pub fn event_tracer(&self) -> Option<&SharedTracer> {
        self.event_tracer.as_ref()
    }

    /// Builds the unified metrics registry: every layer's counters under
    /// stable dotted names — `kernel.*` (fault/migration/TLB/mapping
    /// counters), `spcm.*` and `market.*` (allocation and economy),
    /// `machine.*` (dispatch totals), `manager.<id>.*` (per-manager
    /// activity) and, when tracing is on, `trace.events.*` (per-kind event
    /// counts, immune to ring wraparound).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        self.kernel.export_metrics(&mut m);
        self.spcm.export_metrics(&mut m);
        if let Some(dog) = &self.watchdog {
            dog.export_metrics(&mut m);
        }
        m.set("machine.manager_calls", self.stats.manager_calls);
        m.set(
            "machine.manager_time_us",
            self.stats.manager_time.as_micros(),
        );
        for mgr in self.managers.values() {
            mgr.export_metrics(&mut m);
        }
        if let Some(t) = &self.event_tracer {
            for (kind, count) in t.kind_counts() {
                m.set(&format!("trace.events.{kind}"), count);
            }
            m.set("trace.recorded", t.total_recorded());
            m.set("trace.dropped", t.dropped());
        }
        m
    }

    // ----- manager registration ------------------------------------------------

    /// Registers a segment manager and returns its id.
    pub fn register_manager(&mut self, mut manager: Box<dyn SegmentManager>) -> ManagerId {
        let id = ManagerId(self.next_manager);
        self.next_manager += 1;
        manager.set_id(id);
        if let Some(t) = &self.event_tracer {
            manager.set_tracer(t.clone());
        }
        self.managers.insert(id.0, manager);
        id
    }

    /// Nominates the manager new segments are attached to by
    /// [`Machine::create_segment`].
    pub fn set_default_manager(&mut self, id: ManagerId) {
        self.default_manager = Some(id);
    }

    /// The current default manager, if any.
    pub fn default_manager(&self) -> Option<ManagerId> {
        self.default_manager
    }

    /// Borrows a registered manager (for reading its statistics).
    pub fn manager(&self, id: ManagerId) -> Option<&dyn SegmentManager> {
        self.managers.get(&id.0).map(|b| b.as_ref())
    }

    /// Runs `f` against a registered manager with the full environment —
    /// the hatch applications use to invoke manager-specific operations
    /// (marking pages discardable, requesting prefetch).
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownManager`] if `id` is not registered;
    /// otherwise whatever `f` reports.
    pub fn with_manager<R>(
        &mut self,
        id: ManagerId,
        f: impl FnOnce(&mut dyn SegmentManager, &mut Env<'_>) -> Result<R, ManagerError>,
    ) -> Result<R, MachineError> {
        // Borrowed in place, as in `dispatch`: `Env` borrows only the
        // kernel, store and SPCM, never the manager table.
        let mgr = self
            .managers
            .get_mut(&id.0)
            .ok_or(MachineError::UnknownManager(id))?;
        let mut env = Env {
            kernel: &mut self.kernel,
            store: &mut self.store,
            spcm: &mut self.spcm,
        };
        f(mgr.as_mut(), &mut env).map_err(|source| MachineError::ManagerOp {
            manager: id,
            source,
        })
    }

    // ----- segment / file conveniences -------------------------------------------

    /// Creates a segment attached to the default manager.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownManager`] when no default manager is set,
    /// or kernel/manager failures.
    pub fn create_segment(
        &mut self,
        kind: SegmentKind,
        pages: u64,
    ) -> Result<SegmentId, MachineError> {
        let mgr = self
            .default_manager
            .ok_or(MachineError::UnknownManager(ManagerId(0)))?;
        self.create_segment_with(kind, pages, mgr, UserId::SYSTEM)
    }

    /// Creates a segment attached to an explicit manager and user.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownManager`], kernel or manager failures.
    pub fn create_segment_with(
        &mut self,
        kind: SegmentKind,
        pages: u64,
        manager: ManagerId,
        user: UserId,
    ) -> Result<SegmentId, MachineError> {
        if !self.managers.contains_key(&manager.0) {
            return Err(MachineError::UnknownManager(manager));
        }
        let seg = self.kernel.create_segment(kind, user, manager, pages)?;
        self.with_manager(manager, |m, env| m.attach(env, seg))?;
        Ok(seg)
    }

    /// Opens a named backing file as a cached-file segment under the
    /// default manager.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownFile`] or segment-creation failures.
    pub fn open_file(&mut self, name: &str) -> Result<SegmentId, MachineError> {
        let file = self
            .store
            .find(name)
            .ok_or_else(|| MachineError::UnknownFile(name.to_string()))?;
        let size = self
            .store
            .size(file)
            .map_err(epcm_core::KernelError::from)?;
        let pages = size.div_ceil(BASE_PAGE_SIZE).max(1);
        self.create_segment(SegmentKind::CachedFile(file), pages)
    }

    /// Transfers management of a segment to another manager — the §2.2
    /// ownership-assumption protocol ("when an application starts
    /// execution, these segments are under the control of the default
    /// segment manager. The application manager ... then assumes
    /// management of these segments"). The old manager is notified as for
    /// a close (it writes back and surrenders the frames); the new
    /// manager attaches and simply refaults pages on demand.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownManager`], kernel or manager failures.
    pub fn transfer_segment(
        &mut self,
        seg: SegmentId,
        new_manager: ManagerId,
    ) -> Result<(), MachineError> {
        if !self.managers.contains_key(&new_manager.0) {
            return Err(MachineError::UnknownManager(new_manager));
        }
        let old = self.kernel.segment(seg)?.manager();
        if old == new_manager {
            return Ok(());
        }
        if self.managers.contains_key(&old.0) {
            self.stats.manager_calls += 1;
            self.with_manager(old, |m, env| m.segment_closed(env, seg))?;
        }
        self.with_manager(new_manager, |m, env| m.attach(env, seg))?;
        Ok(())
    }

    /// Closes a segment: notifies its manager (which writes back and
    /// reclaims frames) and destroys it.
    ///
    /// # Errors
    ///
    /// Kernel or manager failures.
    pub fn close_segment(&mut self, seg: SegmentId) -> Result<(), MachineError> {
        let mgr = self.kernel.segment(seg)?.manager();
        self.stats.manager_calls += 1;
        self.with_manager(mgr, |m, env| m.segment_closed(env, seg))?;
        self.kernel.destroy_segment(seg)?;
        Ok(())
    }

    // ----- forced reclamation (SPCM revocation) ---------------------------------

    /// Records `kind` on the shared event tracer, if tracing is on.
    fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.event_tracer {
            t.record(TraceEvent::new(self.kernel.now().as_micros(), kind));
        }
    }

    /// The quarantine segment, created on first use: a system-owned frame
    /// pool where seized dirty pages whose backing store is dead are
    /// impounded with their data intact. Slot = frame index, so a
    /// destination slot is never occupied.
    fn quarantine_segment(&mut self) -> Result<SegmentId, MachineError> {
        if let Some(seg) = self.quarantine_seg {
            return Ok(seg);
        }
        let frames = self.kernel.frames().len() as u64;
        let seg = self.kernel.create_segment(
            SegmentKind::FramePool,
            UserId::SYSTEM,
            ManagerId::SYSTEM,
            frames,
        )?;
        self.quarantine_seg = Some(seg);
        Ok(seg)
    }

    /// Frames currently impounded in the quarantine segment.
    pub fn quarantined_frames(&self) -> u64 {
        self.quarantine_seg
            .and_then(|s| self.kernel.resident_pages(s).ok())
            .unwrap_or(0)
    }

    /// Demands `count` frames back from `manager` — the revocation
    /// protocol bankrupt or over-quota managers are subjected to.
    ///
    /// The manager is first asked politely through
    /// [`SegmentManager::reclaim`]. Compliance settles the demand (and
    /// forgives accumulated strikes). On refusal, failure or shortfall a
    /// demand with a grace deadline is registered with the SPCM; once the
    /// deadline passes — on a later `revoke` or [`Machine::tick`] — the
    /// frames are seized by force, the seizure fee is debited from the
    /// manager's market account, and after
    /// [`RevocationConfig::max_strikes`](crate::spcm::RevocationConfig)
    /// seizures the manager is destroyed outright.
    ///
    /// # Errors
    ///
    /// Kernel failures while seizing; a manager's own `reclaim` failure
    /// counts as refusal and is not propagated.
    pub fn revoke(&mut self, manager: ManagerId, count: u64) -> Result<(), MachineError> {
        let count = count.min(self.spcm.granted_to(manager));
        if count == 0 {
            return Ok(());
        }
        let demand = self
            .spcm
            .begin_revocation(manager, count, self.kernel.now());
        // Polite phase: the manager's own reclaim. A misbehaving manager
        // may under-deliver or fail outright; either way the demand stands
        // until the SPCM sees the frames back.
        let shortfall = demand.shortfall(self.spcm.granted_to(manager));
        if shortfall > 0 && self.managers.contains_key(&manager.0) {
            self.stats.manager_calls += 1;
            let started = self.kernel.now();
            let before = self.spcm.granted_to(manager);
            let claimed = self
                .with_manager(manager, |m, env| m.reclaim(env, shortfall))
                .unwrap_or(0);
            let elapsed = self.kernel.now().duration_since(started);
            // The grant ledger is the ground truth; a reply claiming more
            // compliance than the ledger saw is byzantine and is rejected,
            // fined, and escalated — the demand itself stands regardless.
            let actual = before.saturating_sub(self.spcm.granted_to(manager));
            if claimed > actual {
                self.note_byzantine(manager, claimed - actual)?;
            }
            self.observe_upcall(manager, UpcallKind::Reclaim, elapsed)?;
            if !self.managers.contains_key(&manager.0) {
                // Escalation already failed the manager over (or destroyed
                // it); nothing is left to demand frames from.
                return Ok(());
            }
        }
        if self.spcm.revocation_satisfied(manager) {
            self.spcm.clear_revocation(manager);
            return Ok(());
        }
        if self.kernel.now() >= demand.deadline {
            self.enforce_revocation(manager)?;
        }
        Ok(())
    }

    /// Settles an expired demand by force: seizes the shortfall, records
    /// the strike, and destroys the manager once strikes run out.
    fn enforce_revocation(&mut self, manager: ManagerId) -> Result<(), MachineError> {
        let Some(demand) = self.spcm.revocation(manager) else {
            return Ok(());
        };
        let shortfall = demand.shortfall(self.spcm.granted_to(manager));
        if shortfall == 0 {
            self.spcm.clear_revocation(manager);
            return Ok(());
        }
        let (seized, quarantined) = self.force_seize(manager, shortfall, false)?;
        let strikes = self
            .spcm
            .note_seized(manager, seized + quarantined, quarantined);
        self.emit(EventKind::ForcedReclaim {
            manager: manager.0,
            demanded: shortfall,
            seized,
            quarantined,
        });
        if quarantined > 0 {
            self.emit(EventKind::ManagerQuarantined {
                manager: manager.0,
                pages: quarantined,
                destroyed: false,
            });
        }
        if strikes >= self.spcm.revocation_config().max_strikes {
            self.destroy_manager(manager)?;
        }
        Ok(())
    }

    /// Takes up to `count` frames from `manager` without its cooperation.
    /// Pool frames and clean pages go first (straight back to the boot
    /// pool), then dirty pages — written back by the machine where the
    /// store allows, impounded in the quarantine segment where it does
    /// not. Pinned pages are spared unless `thorough` (destruction).
    /// Returns `(frames to the pool, frames quarantined)`.
    fn force_seize(
        &mut self,
        manager: ManagerId,
        count: u64,
        thorough: bool,
    ) -> Result<(u64, u64), MachineError> {
        let segs: Vec<SegmentId> = self
            .kernel
            .segment_ids()
            .filter(|&s| s != SegmentId::FRAME_POOL && self.quarantine_seg != Some(s))
            .filter(|&s| {
                self.kernel
                    .segment(s)
                    .map(|seg| seg.manager() == manager)
                    .unwrap_or(false)
            })
            .collect();
        let mut pool = Vec::new();
        let mut clean = Vec::new();
        let mut dirty = Vec::new();
        for &s in &segs {
            let seg = self.kernel.segment(s)?;
            let is_pool = matches!(seg.kind(), SegmentKind::FramePool);
            let file = match seg.kind() {
                SegmentKind::CachedFile(f) => Some(f),
                _ => None,
            };
            for (p, e) in seg.resident() {
                if e.flags.contains(PageFlags::PINNED) && !thorough {
                    continue;
                }
                let is_dirty = e.flags.contains(PageFlags::DIRTY);
                if is_pool {
                    pool.push((s, p, false, None));
                } else if is_dirty {
                    dirty.push((s, p, true, file));
                } else {
                    clean.push((s, p, false, file));
                }
            }
        }
        let mut seized = 0u64;
        let mut quarantined = 0u64;
        for (s, p, is_dirty, file) in pool.into_iter().chain(clean).chain(dirty) {
            if seized + quarantined >= count {
                break;
            }
            let written_back = match (is_dirty, file) {
                (false, _) => true,
                (true, Some(f)) => self.seize_writeback(manager, s, p, f)?,
                // Dirty anonymous memory: the swap mapping is private to
                // the evicted manager, so the data can only be impounded.
                (true, None) => false,
            };
            if written_back {
                self.return_home(s, p)?;
                seized += 1;
            } else {
                self.impound(s, p)?;
                quarantined += 1;
            }
        }
        Ok((seized, quarantined))
    }

    /// Migrates one seized page back to its home slot in the boot pool
    /// (home slot = frame index, so the destination is always free).
    fn return_home(&mut self, src: SegmentId, page: PageNumber) -> Result<(), MachineError> {
        let entry = self
            .kernel
            .segment(src)?
            .entry(page)
            .ok_or(epcm_core::KernelError::PageNotPresent { segment: src, page })?;
        let home = PageNumber(entry.frame.index() as u64);
        self.kernel.migrate_pages(
            src,
            SegmentId::FRAME_POOL,
            page,
            home,
            1,
            PageFlags::RW,
            PageFlags::DIRTY
                | PageFlags::REFERENCED
                | PageFlags::PINNED
                | PageFlags::MANAGER_A
                | PageFlags::MANAGER_B,
        )?;
        Ok(())
    }

    /// Impounds one dirty, unwritable page in the quarantine segment
    /// (slot = frame index), keeping its data and DIRTY flag intact.
    fn impound(&mut self, src: SegmentId, page: PageNumber) -> Result<(), MachineError> {
        let qseg = self.quarantine_segment()?;
        let entry = self
            .kernel
            .segment(src)?
            .entry(page)
            .ok_or(epcm_core::KernelError::PageNotPresent { segment: src, page })?;
        let slot = PageNumber(entry.frame.index() as u64);
        self.kernel.migrate_pages(
            src,
            qseg,
            page,
            slot,
            1,
            PageFlags::READ | PageFlags::PINNED,
            PageFlags::WRITE | PageFlags::REFERENCED | PageFlags::MANAGER_A | PageFlags::MANAGER_B,
        )?;
        Ok(())
    }

    /// The machine's own write-back of a seized dirty file page, with
    /// bounded retry on transient store faults. Returns whether the write
    /// stuck; `false` means the page must be quarantined.
    fn seize_writeback(
        &mut self,
        manager: ManagerId,
        seg: SegmentId,
        page: PageNumber,
        file: FileId,
    ) -> Result<bool, MachineError> {
        let block = self.kernel.manager_read_block(seg, page)?;
        let mut attempt = 0u32;
        loop {
            match self.store.write_block(file, page.as_u64(), &block) {
                Ok(latency) => {
                    self.kernel.charge(latency);
                    return Ok(true);
                }
                Err(FileStoreError::Io {
                    file: f,
                    op,
                    write,
                    transient,
                }) => {
                    self.emit(EventKind::FaultInjected {
                        file: f.as_u32(),
                        op,
                        write,
                        transient,
                    });
                    if transient && attempt < SEIZE_RETRY_LIMIT {
                        attempt += 1;
                        self.emit(EventKind::IoRetry {
                            manager: manager.0,
                            file: f.as_u32(),
                            attempt,
                            write,
                        });
                        self.kernel
                            .charge(SEIZE_RETRY_BACKOFF * (1u64 << (attempt - 1)));
                        continue;
                    }
                    return Ok(false);
                }
                Err(_) => return Ok(false),
            }
        }
    }

    /// Destroys a manager that exhausted its strikes: seizes everything it
    /// holds (pinned pages included), reassigns its data segments to the
    /// default manager, destroys its emptied frame pools and unregisters
    /// it. The rest of the machine keeps running.
    ///
    /// # Errors
    ///
    /// Kernel failures, or the default manager failing to adopt a
    /// segment.
    pub fn destroy_manager(&mut self, manager: ManagerId) -> Result<(), MachineError> {
        let (seized, quarantined) = self.force_seize(manager, u64::MAX, true)?;
        if seized + quarantined > 0 {
            // Keep the seizure/quarantine ledger honest; the strike this
            // records is moot, the manager is going away.
            self.spcm
                .note_seized(manager, seized + quarantined, quarantined);
        }
        let segs: Vec<SegmentId> = self
            .kernel
            .segment_ids()
            .filter(|&s| s != SegmentId::FRAME_POOL && self.quarantine_seg != Some(s))
            .filter(|&s| {
                self.kernel
                    .segment(s)
                    .map(|seg| seg.manager() == manager)
                    .unwrap_or(false)
            })
            .collect();
        let heir = self.default_manager.filter(|&d| d != manager);
        for s in segs {
            let is_pool = matches!(self.kernel.segment(s)?.kind(), SegmentKind::FramePool);
            let residual = self.kernel.resident_pages(s)?;
            match heir {
                // Data segments move to the default manager; the grant
                // ledger follows any frames still resident.
                Some(d) if !is_pool => {
                    self.stats.manager_calls += 1;
                    self.with_manager(d, |m, env| m.attach(env, s))?;
                    self.spcm.transfer_grant(manager, d, residual);
                }
                _ if residual == 0 => self.kernel.destroy_segment(s)?,
                // No heir and still resident: orphan it to the system so
                // the frames stay accounted for rather than leaking.
                _ => self.kernel.set_segment_manager(s, ManagerId::SYSTEM)?,
            }
        }
        self.managers.remove(&manager.0);
        if self.default_manager == Some(manager) {
            self.default_manager = None;
        }
        self.spcm.note_destroyed(manager);
        self.emit(EventKind::ManagerQuarantined {
            manager: manager.0,
            pages: quarantined,
            destroyed: true,
        });
        Ok(())
    }

    // ----- the watchdog and failover ---------------------------------------------

    /// Times one completed upcall against the watchdog (when enabled): a
    /// miss is traced and fined, and a manager that exhausts its strikes
    /// is failed over on the spot. No-op without a watchdog.
    ///
    /// # Errors
    ///
    /// Kernel failures during a triggered failover.
    fn observe_upcall(
        &mut self,
        manager: ManagerId,
        kind: UpcallKind,
        elapsed: Micros,
    ) -> Result<(), MachineError> {
        let Some(dog) = self.watchdog.as_mut() else {
            return Ok(());
        };
        let deadline = dog.config().deadline(kind);
        let fine = dog.config().miss_fine;
        let UpcallVerdict::Missed { .. } = dog.observe(manager.0, kind, elapsed) else {
            return Ok(());
        };
        let exhausted = dog.exhausted(manager.0);
        self.emit(EventKind::DeadlineMissed {
            manager: manager.0,
            upcall: kind.code(),
            deadline_us: deadline.as_micros(),
            elapsed_us: elapsed.as_micros(),
        });
        if let Some(market) = self.spcm.market_mut() {
            market.debit(manager, fine);
        }
        if exhausted {
            self.fail_over(manager)?;
        }
        Ok(())
    }

    /// Records a byzantine reclaim reply — the manager claimed `frames`
    /// more compliance than the grant ledger saw. The lie is traced and
    /// fined; under a watchdog it also counts as a strike, escalating to
    /// failover like a deadline miss.
    ///
    /// # Errors
    ///
    /// Kernel failures during a triggered failover.
    fn note_byzantine(&mut self, manager: ManagerId, frames: u64) -> Result<(), MachineError> {
        self.emit(EventKind::ByzantineReply {
            manager: manager.0,
            frames,
        });
        let fine = self
            .watchdog
            .as_ref()
            .map(|dog| dog.config().miss_fine)
            .unwrap_or(0.0);
        if fine > 0.0 {
            if let Some(market) = self.spcm.market_mut() {
                market.debit(manager, fine);
            }
        }
        let exhausted = match self.watchdog.as_mut() {
            Some(dog) => {
                dog.penalize(manager.0);
                dog.exhausted(manager.0)
            }
            None => false,
        };
        if exhausted {
            self.fail_over(manager)?;
        }
        Ok(())
    }

    /// Fails a manager over to the default manager: its data segments are
    /// atomically reassigned with a warm handoff (resident pages stay
    /// resident, dirty pages keep their DIRTY flag and flow through the
    /// heir's laundry), its free-pool frames go straight back to the boot
    /// pool, and its market account is settled. Falls back to
    /// [`Machine::destroy_manager`] when no distinct default manager
    /// exists. Returns the heir, or `None` if the manager was destroyed
    /// instead.
    ///
    /// # Errors
    ///
    /// Kernel failures, or the heir failing to adopt a segment.
    pub fn fail_over(&mut self, manager: ManagerId) -> Result<Option<ManagerId>, MachineError> {
        let heir = self
            .default_manager
            .filter(|&d| d != manager && self.managers.contains_key(&d.0));
        let Some(heir) = heir else {
            self.destroy_manager(manager)?;
            return Ok(None);
        };
        let segs: Vec<SegmentId> = self
            .kernel
            .segment_ids()
            .filter(|&s| s != SegmentId::FRAME_POOL && self.quarantine_seg != Some(s))
            .filter(|&s| {
                self.kernel
                    .segment(s)
                    .map(|seg| seg.manager() == manager)
                    .unwrap_or(false)
            })
            .collect();
        let mut moved_segments = 0u64;
        let mut moved_frames = 0u64;
        for s in segs {
            let is_pool = matches!(self.kernel.segment(s)?.kind(), SegmentKind::FramePool);
            if is_pool {
                // The dead manager's free pool: frames go straight home,
                // shrinking its grant in the same motion.
                let pages: Vec<PageNumber> =
                    self.kernel.segment(s)?.resident().map(|(p, _)| p).collect();
                self.spcm
                    .return_frames(&mut self.kernel, manager, s, &pages)?;
                self.kernel.destroy_segment(s)?;
            } else {
                // Warm handoff: the heir attaches without touching the
                // resident set, and the grant ledger follows the frames.
                let resident = self.kernel.resident_pages(s)?;
                self.stats.manager_calls += 1;
                self.with_manager(heir, |m, env| m.attach(env, s))?;
                self.spcm.transfer_grant(manager, heir, resident);
                moved_segments += 1;
                moved_frames += resident;
            }
        }
        self.managers.remove(&manager.0);
        self.spcm.note_failed_over(manager);
        if let Some(dog) = self.watchdog.as_mut() {
            dog.note_failed_over(manager.0);
        }
        self.emit(EventKind::ManagerFailedOver {
            manager: manager.0,
            heir: heir.0,
            segments: moved_segments,
            frames: moved_frames,
        });
        Ok(Some(heir))
    }

    // ----- the fault loop -------------------------------------------------------

    fn run_to_completion(
        &mut self,
        mut attempt: impl FnMut(&mut Kernel) -> Result<AccessOutcome, epcm_core::KernelError>,
    ) -> Result<(), MachineError> {
        let mut last: Option<FaultEvent> = None;
        for _ in 0..MAX_FAULT_RETRIES {
            match attempt(&mut self.kernel)? {
                AccessOutcome::Completed => return Ok(()),
                AccessOutcome::Fault(fault) => {
                    last = Some(fault);
                    self.dispatch(fault)?;
                }
            }
        }
        Err(MachineError::FaultLivelock(
            last.expect("retries imply at least one fault"),
        ))
    }

    /// Routes one fault to its manager, charging mode-appropriate dispatch
    /// costs (the difference between Table 1's two V++ rows).
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownManager`] or the manager's failure.
    pub fn dispatch(&mut self, fault: FaultEvent) -> Result<(), MachineError> {
        let started = self.kernel.now();
        // The manager is borrowed in place: `Env` below borrows only the
        // kernel, store and SPCM, never the manager table.
        let mgr = self
            .managers
            .get_mut(&fault.manager.0)
            .ok_or(MachineError::UnknownManager(fault.manager))?;
        let costs = self.kernel.costs();
        let (dispatch, resume) = match mgr.mode() {
            ManagerMode::FaultingProcess => (costs.fault_dispatch_inprocess, costs.resume_direct),
            ManagerMode::Server => (
                costs.fault_dispatch_ipc + costs.server_demux,
                costs.ipc_reply + costs.resume_via_kernel,
            ),
        };
        let trap_entry = costs.trap_entry;
        // Both dispatch legs of the upcall cross a protection boundary
        // (kernel→manager delivery, manager→kernel resume); the ringed ABI
        // amortizes the per-op kernel calls *inside* the handler, never
        // these two.
        self.kernel.note_crossings(2);
        self.kernel.charge(dispatch);
        self.stats.manager_calls += 1;
        let result = mgr.handle_fault(
            &mut Env {
                kernel: &mut self.kernel,
                store: &mut self.store,
                spcm: &mut self.spcm,
            },
            &fault,
        );
        self.kernel.charge(resume);
        // Attribute the trap entry (charged before dispatch) to the fault too.
        let elapsed = self.kernel.now().duration_since(started) + trap_entry;
        self.stats.manager_time += elapsed;
        self.observe_upcall(fault.manager, UpcallKind::Fault, elapsed)?;
        result.map_err(|source| MachineError::Manager { fault, source })
    }

    // ----- application-visible accesses -----------------------------------------

    /// References one page, resolving faults through managers.
    ///
    /// # Errors
    ///
    /// Kernel errors, manager failures, or a fault livelock.
    pub fn touch(
        &mut self,
        seg: SegmentId,
        page: u64,
        access: AccessKind,
    ) -> Result<(), MachineError> {
        self.run_to_completion(|k| k.reference(seg, PageNumber(page), access))
    }

    /// Reads bytes from a segment (CPU loads), resolving faults.
    ///
    /// # Errors
    ///
    /// As for [`Machine::touch`].
    pub fn load(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        self.run_to_completion(|k| k.load(seg, offset, buf))
    }

    /// Writes bytes to a segment (CPU stores), resolving faults.
    ///
    /// # Errors
    ///
    /// As for [`Machine::touch`].
    pub fn store_bytes(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<(), MachineError> {
        self.run_to_completion(|k| k.store(seg, offset, buf))
    }

    /// UIO block read from a cached file, resolving faults.
    ///
    /// # Errors
    ///
    /// As for [`Machine::touch`], plus `NotAFile`.
    pub fn uio_read(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        self.run_to_completion(|k| k.uio_read(seg, offset, buf))
    }

    /// UIO block write to a cached file, growing the segment for appends,
    /// resolving faults.
    ///
    /// # Errors
    ///
    /// As for [`Machine::touch`], plus `NotAFile`.
    pub fn uio_write(
        &mut self,
        seg: SegmentId,
        offset: u64,
        buf: &[u8],
    ) -> Result<(), MachineError> {
        let end_page = (offset + buf.len() as u64).div_ceil(BASE_PAGE_SIZE);
        if end_page > self.kernel.segment(seg)?.size_pages() {
            self.kernel.resize_segment(seg, end_page)?;
        }
        self.run_to_completion(|k| k.uio_write(seg, offset, buf))
    }

    /// Housekeeping: bills the memory market, revokes frames from
    /// bankrupt managers (forcibly, once their grace deadline passes),
    /// and gives every surviving manager its periodic tick.
    ///
    /// # Errors
    ///
    /// The first manager failure encountered.
    pub fn tick(&mut self) -> Result<(), MachineError> {
        let bankrupt = self.spcm.bill(&self.kernel, self.event_tracer.as_ref());
        for mgr in bankrupt {
            let held = self.spcm.granted_to(mgr);
            self.revoke(mgr, held.div_ceil(2))?;
        }
        // Enforce demands whose grace deadline has passed unmet.
        let expired: Vec<ManagerId> = self
            .spcm
            .expired_revocations(self.kernel.now())
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        for mgr in expired {
            self.enforce_revocation(mgr)?;
        }
        let ids: Vec<u32> = self.managers.keys().copied().collect();
        for id in ids {
            // A manager may have been destroyed by enforcement this tick.
            if self.managers.contains_key(&id) {
                let started = self.kernel.now();
                self.with_manager(ManagerId(id), |m, env| m.tick(env))?;
                let elapsed = self.kernel.now().duration_since(started);
                self.observe_upcall(ManagerId(id), UpcallKind::Tick, elapsed)?;
            }
        }
        Ok(())
    }

    /// Installs one epoch of a [`crate::market::PriceSchedule`] on the
    /// machine's market ledger (market allocation policy only), emitting
    /// one [`EventKind::PriceAdjusted`] per tier when tracing is
    /// enabled. Returns `false` when the machine runs no market.
    pub fn apply_tier_rents(&mut self, epoch: u32, rents: [f64; MemTier::COUNT]) -> bool {
        let Some(market) = self.spcm.market_mut() else {
            return false;
        };
        market.set_tier_rents(rents);
        for tier in MemTier::all() {
            self.emit(EventKind::PriceAdjusted {
                epoch,
                tier: tier.code(),
                rent: (rents[tier.index()] * 1000.0).round() as u64,
            });
        }
        true
    }

    /// Total frames resident per memory tier across every non-system
    /// manager, derived from the frame table. On a dram-only machine
    /// only index 0 is ever non-zero.
    pub fn resident_by_tier(&self) -> [u64; MemTier::COUNT] {
        let mut totals = [0u64; MemTier::COUNT];
        for (_, by_tier) in self.spcm.holdings_by_tier(&self.kernel) {
            for tier in MemTier::all() {
                totals[tier.index()] += by_tier[tier.index()];
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let m = Machine::builder(64).build();
        assert_eq!(m.kernel().frames().len(), 64);
        assert!(m.default_manager().is_none());
    }

    #[test]
    fn create_segment_without_default_manager_fails() {
        let mut m = Machine::new(64);
        assert!(matches!(
            m.create_segment(SegmentKind::Anonymous, 4),
            Err(MachineError::UnknownManager(_))
        ));
    }

    #[test]
    fn minimal_fault_roundtrip_with_default_manager() {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 1);
        assert_eq!(m.stats().manager_calls, 1);
    }

    #[test]
    fn event_tracing_captures_fault_and_migrate() {
        let mut m = Machine::with_default_manager(256);
        let tracer = m.enable_event_tracing(1024);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        let counts = tracer.kind_counts();
        assert!(counts["fault"] >= 1, "counts: {counts:?}");
        assert!(counts["migrate"] >= 1, "counts: {counts:?}");
        // Timestamps are non-decreasing (one shared virtual clock).
        let events = tracer.events();
        assert!(events.windows(2).all(|w| w[0].time_us <= w[1].time_us));
    }

    #[test]
    fn metrics_unify_kernel_machine_and_manager_counters() {
        let mut m = Machine::with_default_manager(256);
        m.enable_event_tracing(1024);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        let before = m.metrics().snapshot();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        m.touch(seg, 1, AccessKind::Read).unwrap();
        let after = m.metrics().snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counter("kernel.faults.missing"), 2);
        assert_eq!(delta.counter("machine.manager_calls"), 2);
        // The default manager exports its per-manager counters.
        assert_eq!(delta.counter("manager.1.faults"), 2);
        // Trace event counts ride along in the same registry.
        assert_eq!(delta.counter("trace.events.fault"), 2);
        assert!(after.counter("machine.manager_time_us") > 0);
    }

    #[test]
    fn managers_registered_after_enabling_get_the_tracer() {
        let mut m = Machine::new(256);
        let tracer = m.enable_event_tracing(1024);
        let id = m.register_manager(Box::new(
            crate::default_manager::DefaultSegmentManager::server(),
        ));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert!(tracer.kind_counts().contains_key("fault"));
    }

    #[test]
    fn server_mode_fault_costs_table1_row2() {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        // Warm up the manager's free pool so the measured fault is minimal.
        m.touch(seg, 0, AccessKind::Write).unwrap();
        let t0 = m.now();
        m.touch(seg, 1, AccessKind::Write).unwrap();
        let cost = m.now().duration_since(t0);
        assert_eq!(cost, m.kernel().costs().vpp_minimal_fault_server());
    }

    #[test]
    fn unknown_manager_fault_is_reported() {
        let mut m = Machine::new(64);
        // Create a segment naming a manager that was never registered.
        let seg = m
            .kernel_mut()
            .create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(42), 4)
            .unwrap();
        match m.touch(seg, 0, AccessKind::Read) {
            Err(MachineError::UnknownManager(id)) => assert_eq!(id, ManagerId(42)),
            other => panic!("expected UnknownManager, got {other:?}"),
        }
    }

    #[test]
    fn store_and_load_roundtrip_through_faults() {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        m.store_bytes(seg, 123, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        m.load(seg, 123, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn open_file_read_write_roundtrip() {
        let mut m = Machine::with_default_manager(1024);
        let content: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        m.store_mut().create_with("input", content.clone());
        let seg = m.open_file("input").unwrap();
        let mut buf = vec![0u8; content.len()];
        m.uio_read(seg, 0, &mut buf).unwrap();
        assert_eq!(buf, content);
        // Append past the current end grows the segment.
        m.uio_write(seg, content.len() as u64, b"tail").unwrap();
        let mut tail = [0u8; 4];
        m.uio_read(seg, content.len() as u64, &mut tail).unwrap();
        assert_eq!(&tail, b"tail");
    }

    #[test]
    fn open_unknown_file_fails() {
        let mut m = Machine::with_default_manager(64);
        assert!(matches!(
            m.open_file("ghost"),
            Err(MachineError::UnknownFile(_))
        ));
    }

    #[test]
    fn close_segment_returns_frames() {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.close_segment(seg).unwrap();
        assert!(m.kernel().segment(seg).is_err());
        // Conservation: everything is back in the boot pool or the
        // manager's free segment.
        let kernel = m.kernel();
        let total: u64 = kernel
            .segment_ids()
            .map(|s| kernel.resident_pages(s).unwrap())
            .sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn manager_error_display_chain() {
        use std::error::Error;
        let e = MachineError::UnknownManager(ManagerId(5));
        assert!(e.to_string().contains("mgr#5"));
        assert!(e.source().is_none());
        let k = MachineError::from(epcm_core::KernelError::BootSegmentImmutable);
        assert!(k.source().is_some());
    }
}
