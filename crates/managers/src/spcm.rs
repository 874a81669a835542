//! The System Page Cache Manager (§2.4).
//!
//! The SPCM is the process-level module that owns the machine's global
//! frame pool (the kernel's well-known boot segment) and allocates it among
//! segment managers. It "can grant, defer or refuse" a request based on
//! policy, supports requests for particular frames "by physical address or
//! by physical address range" (physical placement) and by cache color, and
//! optionally runs the memory-market economy of [`crate::market`].

use std::collections::BTreeMap;
use std::fmt;

use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{FrameId, ManagerId, PageNumber, SegmentId};
use epcm_sim::clock::{Micros, Timestamp};

use crate::market::{dram_frames, MemoryMarket};

/// A physical-placement constraint on a frame request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysConstraint {
    /// Any frame will do.
    Any,
    /// Frames whose physical byte address lies in `[lo, hi)` — NUMA-style
    /// placement on machines like DASH.
    AddrRange {
        /// Inclusive lower physical address.
        lo: u64,
        /// Exclusive upper physical address.
        hi: u64,
    },
    /// Frames of a particular cache color (`frame_index % colors ==
    /// color`), for application-specific page coloring.
    Color {
        /// The wanted color.
        color: u32,
        /// Number of colors in the cache.
        colors: u32,
    },
    /// Frames belonging to one physical memory tier of the machine's
    /// [`TierLayout`] — how a manager stocks its free-page segment with
    /// cheap SlowMem/CompressedRam frames to demote cold pages into.
    Tier(MemTier),
}

impl PhysConstraint {
    /// Whether `frame` satisfies the constraint under the machine's
    /// boot-time tier partition.
    pub fn admits(&self, frame: FrameId, tiers: &TierLayout) -> bool {
        match *self {
            PhysConstraint::Any => true,
            PhysConstraint::AddrRange { lo, hi } => {
                let a = frame.phys_addr();
                a >= lo && a < hi
            }
            PhysConstraint::Color { color, colors } => frame.color(colors) == color,
            PhysConstraint::Tier(tier) => tiers.tier_of(frame) == tier,
        }
    }
}

/// How the SPCM answers a frame request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// `n` frames were migrated into the requester's segment (possibly
    /// fewer than asked — the paper: "it allocates and provides as many
    /// page frames as it can or is willing to").
    Granted(u64),
    /// Nothing now; ask again later (e.g. the account cannot yet afford
    /// it, or memory is temporarily exhausted pending reclamation).
    Deferred,
    /// The request violates policy and will never be granted as posed.
    Refused,
}

impl Grant {
    /// Frames actually provided.
    pub fn granted(&self) -> u64 {
        match *self {
            Grant::Granted(n) => n,
            _ => 0,
        }
    }
}

/// Global allocation policy.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationPolicy {
    /// First-come-first-served until physical memory (minus the reserve)
    /// runs out — the conventional comparison point.
    FirstCome,
    /// Hard per-manager quota in frames; requests beyond it are refused.
    Quota {
        /// Frames allowed per manager.
        per_manager: u64,
    },
    /// The dram economy: requests are deferred until the account can
    /// afford the memory for `horizon` (the "reasonable time slice" a
    /// batch manager saves up for).
    Market {
        /// The ledger.
        market: MemoryMarket,
        /// The affordability horizon used when admitting a request.
        horizon: Micros,
    },
}

/// Parameters of the forced-reclamation (revocation) protocol the SPCM
/// runs against non-compliant managers (§3.1: "the SPCM reclaims pages
/// from managers that exceed their purchasing power").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationConfig {
    /// Virtual time a manager is given to satisfy a revoke demand through
    /// its own `reclaim` before the SPCM seizes frames by force.
    pub grace: Micros,
    /// Forced seizures a manager survives before it is destroyed and its
    /// segments handed to the default manager.
    pub max_strikes: u32,
    /// Drams debited per forcibly seized frame (market policy only).
    pub fee_per_frame: f64,
}

impl Default for RevocationConfig {
    fn default() -> Self {
        RevocationConfig {
            grace: Micros::from_millis(50),
            max_strikes: 3,
            fee_per_frame: 1.0,
        }
    }
}

/// An outstanding revoke demand against one manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Revocation {
    /// Frames demanded back.
    pub demanded: u64,
    /// Frames the manager held when the demand was issued; compliance
    /// means dropping to `baseline - demanded` or below.
    pub baseline: u64,
    /// Virtual-time deadline after which the SPCM seizes by force.
    pub deadline: Timestamp,
}

impl Revocation {
    /// Frames still owed given the manager's current holding.
    pub fn shortfall(&self, held: u64) -> u64 {
        let target = self.baseline.saturating_sub(self.demanded);
        held.saturating_sub(target)
    }
}

/// Errors from SPCM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpcmError {
    /// Kernel operation failed.
    Kernel(epcm_core::KernelError),
    /// The manager returned frames it was never granted.
    NotGranted {
        /// The over-returning manager.
        manager: ManagerId,
    },
}

impl fmt::Display for SpcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpcmError::Kernel(e) => write!(f, "kernel: {e}"),
            SpcmError::NotGranted { manager } => {
                write!(f, "{manager} returned frames it was not granted")
            }
        }
    }
}

impl std::error::Error for SpcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpcmError::Kernel(e) => Some(e),
            SpcmError::NotGranted { .. } => None,
        }
    }
}

impl From<epcm_core::KernelError> for SpcmError {
    fn from(e: epcm_core::KernelError) -> Self {
        SpcmError::Kernel(e)
    }
}

/// The System Page Cache Manager.
///
/// # Example
///
/// ```
/// use epcm_core::kernel::Kernel;
/// use epcm_core::types::{ManagerId, SegmentKind, UserId};
/// use epcm_managers::spcm::{AllocationPolicy, Grant, PhysConstraint, SystemPageCacheManager};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut kernel = Kernel::new(128);
/// let mut spcm = SystemPageCacheManager::new(AllocationPolicy::FirstCome, 8);
/// let free_seg = kernel.create_segment(
///     SegmentKind::FramePool, UserId::SYSTEM, ManagerId(1), 64)?;
/// let grant = spcm.request_frames(
///     &mut kernel, ManagerId(1), free_seg, 16, PhysConstraint::Any)?;
/// assert_eq!(grant, Grant::Granted(16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPageCacheManager {
    policy: AllocationPolicy,
    /// Frames the SPCM keeps back for system use (the "first team").
    reserve: u64,
    granted: BTreeMap<u32, u64>,
    /// Whether any request has been deferred or trimmed since the last
    /// billing period — the market's contention signal.
    contended: bool,
    requests: u64,
    deferrals: u64,
    refusals: u64,
    revocation_config: RevocationConfig,
    /// Outstanding revoke demands by manager.
    revocations: BTreeMap<u32, Revocation>,
    /// Forced-seizure strikes by manager.
    strikes: BTreeMap<u32, u32>,
    revocations_issued: u64,
    frames_seized: u64,
    pages_quarantined: u64,
    managers_destroyed: u64,
}

impl SystemPageCacheManager {
    /// Creates an SPCM with the given policy, keeping `reserve` frames
    /// back from allocation.
    pub fn new(policy: AllocationPolicy, reserve: u64) -> Self {
        SystemPageCacheManager {
            policy,
            reserve,
            granted: BTreeMap::new(),
            contended: false,
            requests: 0,
            deferrals: 0,
            refusals: 0,
            revocation_config: RevocationConfig::default(),
            revocations: BTreeMap::new(),
            strikes: BTreeMap::new(),
            revocations_issued: 0,
            frames_seized: 0,
            pages_quarantined: 0,
            managers_destroyed: 0,
        }
    }

    /// The forced-reclamation parameters in force.
    pub fn revocation_config(&self) -> RevocationConfig {
        self.revocation_config
    }

    /// Replaces the forced-reclamation parameters.
    pub fn set_revocation_config(&mut self, config: RevocationConfig) {
        self.revocation_config = config;
    }

    /// Registers a revoke demand of `demanded` frames against `manager`,
    /// due `grace` after `now`. A demand already outstanding is left
    /// untouched (the original deadline stands). Returns the demand.
    pub fn begin_revocation(
        &mut self,
        manager: ManagerId,
        demanded: u64,
        now: Timestamp,
    ) -> Revocation {
        let baseline = self.granted_to(manager);
        let grace = self.revocation_config.grace;
        *self.revocations.entry(manager.0).or_insert_with(|| {
            self.revocations_issued += 1;
            Revocation {
                demanded,
                baseline,
                deadline: now + grace,
            }
        })
    }

    /// The outstanding revoke demand against `manager`, if any.
    pub fn revocation(&self, manager: ManagerId) -> Option<Revocation> {
        self.revocations.get(&manager.0).copied()
    }

    /// Whether `manager` has satisfied its outstanding demand (vacuously
    /// true with no demand outstanding).
    pub fn revocation_satisfied(&self, manager: ManagerId) -> bool {
        match self.revocations.get(&manager.0) {
            Some(r) => r.shortfall(self.granted_to(manager)) == 0,
            None => true,
        }
    }

    /// Clears the demand against `manager` and — compliance earning back
    /// trust — its strikes.
    pub fn clear_revocation(&mut self, manager: ManagerId) {
        self.revocations.remove(&manager.0);
        self.strikes.remove(&manager.0);
    }

    /// Managers whose revoke deadline has passed unmet, with their
    /// remaining shortfalls.
    pub fn expired_revocations(&self, now: Timestamp) -> Vec<(ManagerId, u64)> {
        self.revocations
            .iter()
            .filter(|(_, r)| now >= r.deadline)
            .map(|(&m, r)| (ManagerId(m), r.shortfall(self.granted_to(ManagerId(m)))))
            .filter(|&(_, short)| short > 0)
            .collect()
    }

    /// Records a forced seizure: `frames` frames taken from `manager` (of
    /// which `quarantined` went to the quarantine segment rather than the
    /// free pool), debits the seizure fee when a market is in force, and
    /// adds a strike. Returns the manager's strike count.
    pub fn note_seized(&mut self, manager: ManagerId, frames: u64, quarantined: u64) -> u32 {
        let held = self.granted.entry(manager.0).or_insert(0);
        *held = held.saturating_sub(frames);
        self.frames_seized += frames;
        self.pages_quarantined += quarantined;
        self.revocations.remove(&manager.0);
        let fee = self.revocation_config.fee_per_frame * frames as f64;
        if let Some(market) = self.market_mut() {
            market.debit(manager, fee);
        }
        let strikes = self.strikes.entry(manager.0).or_insert(0);
        *strikes += 1;
        *strikes
    }

    /// Forgets a destroyed manager: its grant, demand and strikes.
    pub fn note_destroyed(&mut self, manager: ManagerId) {
        self.granted.remove(&manager.0);
        self.revocations.remove(&manager.0);
        self.strikes.remove(&manager.0);
        self.managers_destroyed += 1;
    }

    /// Forgets a manager that was failed over to an heir. Unlike
    /// [`SystemPageCacheManager::note_destroyed`] this does not count as
    /// a destruction — the tenant's segments live on under the heir —
    /// but the dead manager's residual grant, demand and strikes are
    /// dropped and its market account is settled (balance forfeited,
    /// income stopped). Returns the settled balance when a market is in
    /// force.
    pub fn note_failed_over(&mut self, manager: ManagerId) -> Option<f64> {
        self.granted.remove(&manager.0);
        self.revocations.remove(&manager.0);
        self.strikes.remove(&manager.0);
        self.market_mut()
            .and_then(|market| market.settle_account(manager))
    }

    /// Forced-seizure strikes currently held against `manager`.
    pub fn strikes(&self, manager: ManagerId) -> u32 {
        self.strikes.get(&manager.0).copied().unwrap_or(0)
    }

    /// Lifetime forced-reclamation counters:
    /// `(demands issued, frames seized, pages quarantined, managers
    /// destroyed)`.
    pub fn revocation_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.revocations_issued,
            self.frames_seized,
            self.pages_quarantined,
            self.managers_destroyed,
        )
    }

    /// Moves up to `frames` of grant accounting from one manager to
    /// another — used when the machine reassigns a destroyed manager's
    /// still-resident segments so the ledger follows the frames.
    pub fn transfer_grant(&mut self, from: ManagerId, to: ManagerId, frames: u64) {
        let held = self.granted.entry(from.0).or_insert(0);
        let moved = frames.min(*held);
        *held -= moved;
        if moved > 0 {
            *self.granted.entry(to.0).or_insert(0) += moved;
        }
    }

    /// The allocation policy in force.
    pub fn policy(&self) -> &AllocationPolicy {
        &self.policy
    }

    /// Mutable access to the market ledger, when the policy is
    /// [`AllocationPolicy::Market`].
    pub fn market_mut(&mut self) -> Option<&mut MemoryMarket> {
        match &mut self.policy {
            AllocationPolicy::Market { market, .. } => Some(market),
            _ => None,
        }
    }

    /// Shared access to the market ledger.
    pub fn market(&self) -> Option<&MemoryMarket> {
        match &self.policy {
            AllocationPolicy::Market { market, .. } => Some(market),
            _ => None,
        }
    }

    /// Bills `manager` for `blocks` 4 KB I/O transfers on the market
    /// ledger, if one is in force. Managers call this when a writeback's
    /// disk reservation completes (completion-time billing); under
    /// non-market policies it is a no-op. Returns whether a ledger was
    /// charged.
    pub fn charge_manager_io(&mut self, manager: ManagerId, blocks: u64) -> bool {
        match self.market_mut() {
            Some(market) => {
                market.charge_io(manager, blocks);
                true
            }
            None => false,
        }
    }

    /// Frames currently grantable (boot-pool residents minus the reserve).
    pub fn available(&self, kernel: &Kernel) -> u64 {
        kernel
            .resident_pages(SegmentId::FRAME_POOL)
            .unwrap_or(0)
            .saturating_sub(self.reserve)
    }

    /// Frames currently granted to `manager`.
    pub fn granted_to(&self, manager: ManagerId) -> u64 {
        self.granted.get(&manager.0).copied().unwrap_or(0)
    }

    /// All outstanding grants as `(manager, frames)`.
    pub fn holdings(&self) -> Vec<(ManagerId, u64)> {
        self.granted
            .iter()
            .map(|(&m, &n)| (ManagerId(m), n))
            .collect()
    }

    /// `(requests, deferrals, refusals)` counters.
    pub fn decision_counts(&self) -> (u64, u64, u64) {
        (self.requests, self.deferrals, self.refusals)
    }

    /// Requests `count` frames for `manager`, migrated into `dst` (its
    /// free-page segment) at the lowest empty page slots.
    ///
    /// # Errors
    ///
    /// [`SpcmError::Kernel`] if the destination segment is invalid or the
    /// migration fails.
    pub fn request_frames(
        &mut self,
        kernel: &mut Kernel,
        manager: ManagerId,
        dst: SegmentId,
        count: u64,
        constraint: PhysConstraint,
    ) -> Result<Grant, SpcmError> {
        self.requests += 1;
        let available = self.available(kernel);
        let admit = match &self.policy {
            AllocationPolicy::FirstCome => count.min(available),
            AllocationPolicy::Quota { per_manager } => {
                let used = self.granted_to(manager);
                if used >= *per_manager {
                    self.refusals += 1;
                    self.contended = true;
                    return Ok(Grant::Refused);
                }
                count.min(per_manager - used).min(available)
            }
            AllocationPolicy::Market { market, horizon } => {
                let wanted = self.granted_to(manager) + count;
                if market.account(manager).is_none() {
                    self.refusals += 1;
                    self.contended = true;
                    return Ok(Grant::Refused);
                }
                if !market.can_afford(manager, wanted, *horizon) {
                    self.deferrals += 1;
                    self.contended = true;
                    return Ok(Grant::Deferred);
                }
                count.min(available)
            }
        };
        if admit == 0 {
            self.deferrals += 1;
            self.contended = true;
            return Ok(Grant::Deferred);
        }
        if admit < count {
            self.contended = true;
        }

        // Select matching frames from the boot pool (ordered by physical
        // address, as the boot segment is laid out).
        let tiers = *kernel.tiers();
        let boot = kernel.segment(SegmentId::FRAME_POOL)?;
        let picks: Vec<PageNumber> = boot
            .resident()
            .filter(|(_, e)| constraint.admits(e.frame, &tiers))
            .map(|(p, _)| p)
            .take(admit as usize)
            .collect();
        if picks.is_empty() {
            // Constraint unsatisfiable right now: same handling as an
            // exhausted unconstrained request (paper §2.4).
            self.deferrals += 1;
            self.contended = true;
            return Ok(Grant::Deferred);
        }

        // Find empty destination slots.
        let free_slots: Vec<PageNumber> = kernel
            .segment(dst)?
            .vacant_from(PageNumber(0))
            .take(picks.len())
            .collect();
        let n = free_slots.len().min(picks.len());
        // Migrate maximal runs where both source and destination pages are
        // consecutive, so a 64-frame grant is a handful of MigratePages
        // calls rather than 64.
        let mut i = 0;
        while i < n {
            let mut len = 1;
            while i + len < n
                && picks[i + len].as_u64() == picks[i].as_u64() + len as u64
                && free_slots[i + len].as_u64() == free_slots[i].as_u64() + len as u64
            {
                len += 1;
            }
            kernel.migrate_pages(
                SegmentId::FRAME_POOL,
                dst,
                picks[i],
                free_slots[i],
                len as u64,
                PageFlags::RW,
                PageFlags::empty(),
            )?;
            i += len;
        }
        *self.granted.entry(manager.0).or_insert(0) += n as u64;
        Ok(Grant::Granted(n as u64))
    }

    /// Returns frames from `src` pages back to the global pool. Each frame
    /// migrates to its home boot-segment slot (page number == physical
    /// frame index), which is empty by the conservation invariant.
    ///
    /// # Errors
    ///
    /// [`SpcmError::NotGranted`] if `manager` returns more than it holds;
    /// [`SpcmError::Kernel`] on migration failure.
    pub fn return_frames(
        &mut self,
        kernel: &mut Kernel,
        manager: ManagerId,
        src: SegmentId,
        pages: &[PageNumber],
    ) -> Result<(), SpcmError> {
        let held = self.granted_to(manager);
        if (pages.len() as u64) > held {
            return Err(SpcmError::NotGranted { manager });
        }
        for &p in pages {
            let entry =
                kernel
                    .segment(src)?
                    .entry(p)
                    .ok_or(epcm_core::KernelError::PageNotPresent {
                        segment: src,
                        page: p,
                    })?;
            let home = PageNumber(entry.frame.index() as u64);
            kernel.migrate_pages(
                src,
                SegmentId::FRAME_POOL,
                p,
                home,
                1,
                PageFlags::RW,
                PageFlags::DIRTY | PageFlags::REFERENCED,
            )?;
        }
        *self.granted.entry(manager.0).or_insert(0) -= pages.len() as u64;
        Ok(())
    }

    /// Runs a market billing period (no-op under other policies),
    /// recording market charges into `tracer` (the
    /// [`Machine`](crate::Machine) passes its shared event tracer here).
    /// Returns the bankrupt managers the machine must force reclamation
    /// from, and clears the contention signal for the next period.
    pub fn bill(
        &mut self,
        kernel: &Kernel,
        tracer: Option<&epcm_trace::SharedTracer>,
    ) -> Vec<ManagerId> {
        let contended = self.contended;
        self.contended = false;
        if !matches!(self.policy, AllocationPolicy::Market { .. }) {
            return Vec::new();
        }
        // Tiered machines bill each manager's frames by the tier they sit
        // in; flat machines bill the grant counts, all DRAM.
        let holdings = if kernel.tiers().is_dram_only() {
            let holdings = self.holdings().into_iter();
            holdings.map(|(m, n)| (m, dram_frames(n))).collect()
        } else {
            Self::tiered_holdings(kernel)
        };
        match &mut self.policy {
            AllocationPolicy::Market { market, .. } => {
                market.bill(kernel.now(), &holdings, contended, tracer)
            }
            _ => Vec::new(),
        }
    }

    /// Public view of `tiered_holdings`: each
    /// non-system manager's frame count per memory tier, derived from
    /// the frame table. The economy engine reads this at every epoch
    /// barrier to build residency-by-tier occupancy curves.
    pub fn holdings_by_tier(&self, kernel: &Kernel) -> Vec<(ManagerId, [u64; MemTier::COUNT])> {
        Self::tiered_holdings(kernel)
    }

    /// Per-manager, per-tier frame holdings derived from the frame table:
    /// every frame outside the boot pool is attributed to the manager of
    /// the segment it currently sits in (free-page segments included —
    /// stocked frames cost money, which is what makes demotion pay).
    fn tiered_holdings(kernel: &Kernel) -> Vec<(ManagerId, [u64; MemTier::COUNT])> {
        let mut map: BTreeMap<u32, [u64; MemTier::COUNT]> = BTreeMap::new();
        for frame in kernel.frames().ids() {
            let (seg, _) = kernel.frames().owner(frame);
            if seg == SegmentId::FRAME_POOL {
                continue;
            }
            let Ok(segment) = kernel.segment(seg) else {
                continue;
            };
            let manager = segment.manager();
            if manager == ManagerId::SYSTEM {
                continue;
            }
            map.entry(manager.0).or_default()[kernel.tiers().tier_of(frame).index()] += 1;
        }
        map.into_iter().map(|(m, t)| (ManagerId(m), t)).collect()
    }

    /// Exports the SPCM's counters (and the market ledger totals, when a
    /// market policy is in force) into `m` under `spcm.*` / `market.*`
    /// names. Dram amounts are exported in millidrams, since the registry
    /// holds integers.
    pub fn export_metrics(&self, m: &mut epcm_trace::MetricsRegistry) {
        m.set("spcm.requests", self.requests);
        m.set("spcm.deferrals", self.deferrals);
        m.set("spcm.refusals", self.refusals);
        m.set("spcm.granted_frames", self.granted.values().sum());
        m.set("spcm.granted_managers", self.granted.len() as u64);
        m.set("spcm.revoked.issued", self.revocations_issued);
        m.set("spcm.revoked.active", self.revocations.len() as u64);
        m.set("spcm.revoked.seized_frames", self.frames_seized);
        m.set("spcm.revoked.quarantined_pages", self.pages_quarantined);
        m.set("spcm.revoked.destroyed_managers", self.managers_destroyed);
        if let Some(market) = self.market() {
            m.set(
                "market.total_charged_millidrams",
                (market.total_charged() * 1000.0).round() as u64,
            );
            m.set(
                "market.total_income_millidrams",
                (market.total_income() * 1000.0).round() as u64,
            );
            m.set(
                "market.total_tax_millidrams",
                (market.total_tax() * 1000.0).round() as u64,
            );
            // Dynamic rents and the residual check only appear once a
            // price schedule has been applied, so schedule-free runs
            // export exactly the pre-economy key set.
            if let Some(rents) = market.tier_rents() {
                for tier in MemTier::all() {
                    m.set(
                        &format!("market.rent.{}_millidrams", tier.name()),
                        (rents[tier.index()] * 1000.0).round() as u64,
                    );
                }
                m.set(
                    "market.ledger_residual_abs_nanodrams",
                    (market.ledger_residual().abs() * 1e9).round() as u64,
                );
            }
        }
    }
}

impl fmt::Display for SystemPageCacheManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: u64 = self.granted.values().sum();
        write!(
            f,
            "spcm: {total} frames granted across {} managers ({} req / {} defer / {} refuse)",
            self.granted.len(),
            self.requests,
            self.deferrals,
            self.refusals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcm_core::types::{SegmentKind, UserId};

    fn setup(
        frames: usize,
        policy: AllocationPolicy,
        reserve: u64,
    ) -> (Kernel, SystemPageCacheManager, SegmentId) {
        let mut kernel = Kernel::new(frames);
        let spcm = SystemPageCacheManager::new(policy, reserve);
        let free = kernel
            .create_segment(
                SegmentKind::FramePool,
                UserId::SYSTEM,
                ManagerId(1),
                frames as u64,
            )
            .unwrap();
        (kernel, spcm, free)
    }

    #[test]
    fn first_come_grants_until_reserve() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::FirstCome, 8);
        let g = spcm
            .request_frames(&mut k, ManagerId(1), free, 100, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g, Grant::Granted(56));
        assert_eq!(spcm.available(&k), 0);
        assert_eq!(spcm.granted_to(ManagerId(1)), 56);
        // Next request defers.
        let g2 = spcm
            .request_frames(&mut k, ManagerId(1), free, 1, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g2, Grant::Deferred);
    }

    #[test]
    fn quota_refuses_beyond_limit() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::Quota { per_manager: 10 }, 0);
        let g = spcm
            .request_frames(&mut k, ManagerId(1), free, 30, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g, Grant::Granted(10));
        let g2 = spcm
            .request_frames(&mut k, ManagerId(1), free, 1, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g2, Grant::Refused);
        let (req, _, refusals) = spcm.decision_counts();
        assert_eq!(req, 2);
        assert_eq!(refusals, 1);
    }

    #[test]
    fn address_range_constraint_respected() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::FirstCome, 0);
        // Frames 16..32 only.
        let g = spcm
            .request_frames(
                &mut k,
                ManagerId(1),
                free,
                100,
                PhysConstraint::AddrRange {
                    lo: 16 * 4096,
                    hi: 32 * 4096,
                },
            )
            .unwrap();
        assert_eq!(g, Grant::Granted(16));
        for (_, e) in k.segment(free).unwrap().resident() {
            assert!((16..32).contains(&(e.frame.index() as u64)));
        }
    }

    #[test]
    fn color_constraint_respected() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::FirstCome, 0);
        let g = spcm
            .request_frames(
                &mut k,
                ManagerId(1),
                free,
                10,
                PhysConstraint::Color {
                    color: 3,
                    colors: 8,
                },
            )
            .unwrap();
        assert_eq!(g, Grant::Granted(8)); // 64 frames / 8 colors
        for (_, e) in k.segment(free).unwrap().resident() {
            assert_eq!(e.frame.color(8), 3);
        }
    }

    #[test]
    fn return_frames_restores_pool_and_reuse() {
        let (mut k, mut spcm, free) = setup(32, AllocationPolicy::FirstCome, 0);
        spcm.request_frames(&mut k, ManagerId(1), free, 5, PhysConstraint::Any)
            .unwrap();
        let pages: Vec<PageNumber> = k
            .segment(free)
            .unwrap()
            .resident()
            .map(|(p, _)| p)
            .collect();
        spcm.return_frames(&mut k, ManagerId(1), free, &pages)
            .unwrap();
        assert_eq!(spcm.granted_to(ManagerId(1)), 0);
        assert_eq!(k.resident_pages(SegmentId::FRAME_POOL).unwrap(), 32);
        // Frames land in their home slots: page == frame index.
        for (p, e) in k.segment(SegmentId::FRAME_POOL).unwrap().resident() {
            assert_eq!(p.as_u64(), e.frame.index() as u64);
        }
    }

    #[test]
    fn over_return_is_error() {
        let (mut k, mut spcm, free) = setup(32, AllocationPolicy::FirstCome, 0);
        spcm.request_frames(&mut k, ManagerId(1), free, 2, PhysConstraint::Any)
            .unwrap();
        let err = spcm
            .return_frames(
                &mut k,
                ManagerId(1),
                free,
                &[PageNumber(0), PageNumber(1), PageNumber(2)],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SpcmError::NotGranted {
                manager: ManagerId(1)
            }
        );
    }

    #[test]
    fn market_defers_until_affordable() {
        use crate::market::{MarketConfig, MemoryMarket};
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: 1.0,
            ..MarketConfig::default()
        });
        market.open_account(ManagerId(1), None);
        let policy = AllocationPolicy::Market {
            market,
            horizon: Micros::from_secs(10),
        };
        let (mut k, mut spcm, free) = setup(512, policy, 0);
        // Fresh account, zero balance: 256 frames for 10 s costs 10 drams.
        let g = spcm
            .request_frames(&mut k, ManagerId(1), free, 256, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g, Grant::Deferred);
        // Earn income for 20 virtual seconds, then retry.
        k.charge(Micros::from_secs(20));
        let bankrupt = spcm.bill(&k, None);
        assert!(bankrupt.is_empty());
        let g2 = spcm
            .request_frames(&mut k, ManagerId(1), free, 256, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g2, Grant::Granted(256));
    }

    #[test]
    fn market_bankruptcy_reported_through_bill() {
        use crate::market::{MarketConfig, MemoryMarket};
        use epcm_core::types::AccessKind;
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: 100.0,
            ..MarketConfig::default()
        });
        market.open_account(ManagerId(1), Some(0.01));
        let policy = AllocationPolicy::Market {
            market,
            horizon: Micros::new(1), // trivially affordable horizon
        };
        let mut machine = crate::Machine::builder(512).allocation(policy).build();
        let mgr = machine.register_manager(Box::new(crate::DefaultSegmentManager::server()));
        assert_eq!(mgr, ManagerId(1), "account was opened for manager 1");
        machine.set_default_manager(mgr);
        machine.kernel_mut().charge(Micros::from_secs(100)); // accrue a little income
        machine.tick().unwrap(); // first bill deposits it
                                 // Touch more pages than the machine has frames: the manager ends
                                 // up holding nearly the whole pool and the market turns contended.
        let seg = machine
            .create_segment(SegmentKind::Anonymous, 1024)
            .unwrap();
        for p in 0..600 {
            machine.touch(seg, p, AccessKind::Write).unwrap();
        }
        let held_before = machine.spcm().granted_to(mgr);
        assert!(held_before > 0);
        // ~2 MB held for 1000 s dwarfs the 0.01 dram/s income.
        machine.kernel_mut().charge(Micros::from_secs(1000));
        machine.tick().unwrap();
        // The bill drove the account bankrupt...
        let balance = machine.spcm().market().unwrap().balance(mgr).unwrap();
        assert!(balance < 0.0, "expected bankruptcy, balance {balance}");
        // ...and the machine responded by clawing frames back: the demand
        // was met (politely or by force) and the holding shrank.
        let held_after = machine.spcm().granted_to(mgr);
        assert!(
            held_after <= held_before - held_before.div_ceil(2),
            "holding not clawed back: {held_before} -> {held_after}"
        );
        assert!(machine.spcm().revocation_satisfied(mgr));
        // Conservation: every seized frame is back in the boot pool.
        let pool = machine
            .kernel()
            .resident_pages(SegmentId::FRAME_POOL)
            .unwrap();
        assert!(pool >= held_before - held_after);
    }

    #[test]
    fn revocation_state_machine_tracks_demands_and_strikes() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::FirstCome, 0);
        spcm.request_frames(&mut k, ManagerId(1), free, 16, PhysConstraint::Any)
            .unwrap();
        let now = k.now();
        let demand = spcm.begin_revocation(ManagerId(1), 8, now);
        assert_eq!(demand.demanded, 8);
        assert_eq!(demand.baseline, 16);
        assert_eq!(demand.deadline, now + spcm.revocation_config().grace);
        assert!(!spcm.revocation_satisfied(ManagerId(1)));
        // Re-issuing does not reset the deadline or re-count the demand.
        k.charge(Micros::from_millis(1));
        let again = spcm.begin_revocation(ManagerId(1), 12, k.now());
        assert_eq!(again.deadline, demand.deadline);
        // Not expired before the grace deadline.
        assert!(spcm.expired_revocations(now).is_empty());
        let late = demand.deadline + Micros::from_millis(1);
        assert_eq!(
            spcm.expired_revocations(late),
            vec![(ManagerId(1), 8)],
            "full shortfall still outstanding"
        );
        // A forced seizure settles the demand and records a strike.
        let strikes = spcm.note_seized(ManagerId(1), 8, 3);
        assert_eq!(strikes, 1);
        assert_eq!(spcm.granted_to(ManagerId(1)), 8);
        assert!(spcm.revocation_satisfied(ManagerId(1)));
        assert!(spcm.expired_revocations(late).is_empty());
        // Compliance forgives strikes; destruction forgets the manager.
        spcm.begin_revocation(ManagerId(1), 2, late);
        spcm.clear_revocation(ManagerId(1));
        assert_eq!(spcm.strikes(ManagerId(1)), 0);
        spcm.note_destroyed(ManagerId(1));
        assert_eq!(spcm.granted_to(ManagerId(1)), 0);
    }

    #[test]
    fn transfer_grant_moves_accounting_between_managers() {
        let (mut k, mut spcm, free) = setup(64, AllocationPolicy::FirstCome, 0);
        spcm.request_frames(&mut k, ManagerId(1), free, 10, PhysConstraint::Any)
            .unwrap();
        spcm.transfer_grant(ManagerId(1), ManagerId(2), 4);
        assert_eq!(spcm.granted_to(ManagerId(1)), 6);
        assert_eq!(spcm.granted_to(ManagerId(2)), 4);
        // Transfers are clamped to what the source actually holds.
        spcm.transfer_grant(ManagerId(1), ManagerId(2), 100);
        assert_eq!(spcm.granted_to(ManagerId(1)), 0);
        assert_eq!(spcm.granted_to(ManagerId(2)), 10);
    }

    #[test]
    fn unknown_market_account_is_refused() {
        use crate::market::{MarketConfig, MemoryMarket};
        let policy = AllocationPolicy::Market {
            market: MemoryMarket::new(MarketConfig::default()),
            horizon: Micros::from_secs(1),
        };
        let (mut k, mut spcm, free) = setup(32, policy, 0);
        let g = spcm
            .request_frames(&mut k, ManagerId(7), free, 1, PhysConstraint::Any)
            .unwrap();
        assert_eq!(g, Grant::Refused);
    }

    #[test]
    fn display_shows_counts() {
        let (mut k, mut spcm, free) = setup(16, AllocationPolicy::FirstCome, 0);
        spcm.request_frames(&mut k, ManagerId(1), free, 4, PhysConstraint::Any)
            .unwrap();
        assert!(spcm.to_string().contains("4 frames granted"));
    }
}
