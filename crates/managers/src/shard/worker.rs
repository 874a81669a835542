//! The per-shard worker and the messages that cross shard boundaries.
//! Worker threads share no mutable state: everything a lane tells the
//! coordinator travels in a [`LaneReport`], and everything the
//! coordinator tells the lanes travels back in one [`EpochPlan`].

use std::sync::mpsc;

use epcm_core::shard::{ShardId, ShardLayout};
use epcm_core::tier::MemTier;
use epcm_sim::clock::Timestamp;

use super::lane::{build_tenant, lane_result, run_tenant_epoch, Tenant};
use super::{LaneFate, LaneResult, ShardEngineConfig, TenantWorkload};

/// A lane's cross-shard request, applied only by the coordinator after
/// the deterministic merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CrossShardMsg {
    /// Lease this many spill frames from the global pool — the sharded
    /// analogue of a cross-shard `MigrateFrame` exchange.
    Lease(u64),
    /// Return this many frames of the lane's lease to the pool.
    Release(u64),
}

/// A lane's liveness at an epoch barrier. Chaos-free, churn-free runs
/// only ever report [`LaneStatus::Active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LaneStatus {
    /// The lane ran its epoch (possibly after containing a chaos event —
    /// see [`LaneReport::incidents`]).
    Active,
    /// The lane has not arrived yet, or already departed.
    Idle,
    /// The lane is departing this epoch: the coordinator must reclaim
    /// its spill leases and settle its market account.
    Departing,
}

/// One lane's epoch-barrier report to the coordinator.
#[derive(Debug, Clone)]
pub(super) struct LaneReport {
    pub(super) lane: u64,
    /// The lane's virtual clock at the barrier.
    pub(super) now: Timestamp,
    /// Frames the lane's SPCM currently has granted (demand signal).
    pub(super) resident: u64,
    /// Faults the lane took this epoch.
    pub(super) faults: u64,
    /// Cross-shard requests, made at `now`.
    pub(super) msgs: Vec<CrossShardMsg>,
    pub(super) status: LaneStatus,
    /// Contained chaos events and churn transitions this epoch, in
    /// occurrence order; empty on every chaos-free run.
    pub(super) incidents: Vec<String>,
    /// Virtual time the lane consumed this epoch (µs).
    pub(super) epoch_us: u64,
    /// Resident frames per memory tier (economy runs; all-zero
    /// otherwise).
    pub(super) resident_by_tier: [u64; MemTier::COUNT],
    /// Lane-local ledger balance (tiered economy runs; 0 otherwise).
    pub(super) local_balance: f64,
}

impl LaneReport {
    /// The report of a lane that ran no epoch: idle, or departing.
    pub(super) fn quiet(
        lane: u64,
        now: Timestamp,
        status: LaneStatus,
        incidents: Vec<String>,
    ) -> LaneReport {
        LaneReport {
            lane,
            now,
            resident: 0,
            faults: 0,
            msgs: Vec::new(),
            status,
            incidents,
            epoch_us: 0,
            resident_by_tier: [0; MemTier::COUNT],
            local_balance: 0.0,
        }
    }
}

/// The coordinator's broadcast after an epoch barrier: the merged,
/// globally agreed state every lane resumes from.
#[derive(Debug, Clone)]
pub(super) struct EpochPlan {
    /// Spill frames currently leased to each lane (indexed by lane).
    pub(super) leases: Vec<u64>,
    /// Per-tier rents posted for the next epoch (economy runs only);
    /// installed on each live lane's local ledger.
    pub(super) rents: Option<[f64; MemTier::COUNT]>,
}

/// A worker's barrier submission: its lanes' reports in lane order, or
/// a structured failure with shard context, so an engine bug aborts the
/// run with a [`super::ShardEngineError`] instead of a bare thread panic.
pub(super) enum FromWorker {
    Reports(ShardId, Vec<LaneReport>),
    Failed(ShardId, String),
}

/// A lane slot as the worker sees it across churn: the tenant machine
/// exists only inside the lane's `[arrive, depart)` window; a departed
/// lane keeps its snapshot result.
struct LaneSlot {
    lane: u64,
    arrive: u32,
    depart: u32,
    tenant: Option<Tenant>,
    done: Option<LaneResult>,
}

/// A worker thread's body: advances each owned lane through one epoch,
/// reports at the barrier, applies the coordinator's plan, repeats; then
/// returns its lanes' results, in lane order. A closed channel means the
/// coordinator is gone (another worker failed): the worker unwinds its
/// lanes and returns.
pub(super) fn worker_loop(
    cfg: &ShardEngineConfig,
    layout: ShardLayout,
    shard: ShardId,
    workload: &dyn TenantWorkload,
    plans: &mpsc::Receiver<EpochPlan>,
    reports: &mpsc::Sender<FromWorker>,
) -> Result<Vec<LaneResult>, String> {
    let hung_up = || "the coordinator hung up".to_string();
    let mut slots: Vec<LaneSlot> = layout
        .lane_range(shard)
        .map(|lane| {
            let (arrive, depart) = cfg.churn_window(lane);
            LaneSlot {
                lane,
                arrive,
                depart,
                tenant: None,
                done: None,
            }
        })
        .collect();
    // The rents the coordinator most recently posted: applied to every
    // live lane when a plan arrives, and to a mid-run arrival the moment
    // it is built (it must not run an epoch at stale base rents).
    let mut last_rents: Option<[f64; MemTier::COUNT]> = None;
    for epoch in 0..cfg.epochs {
        let batch = slots
            .iter_mut()
            .map(|slot| slot_epoch(cfg, workload, slot, epoch, last_rents))
            .collect();
        reports
            .send(FromWorker::Reports(shard, batch))
            .map_err(|_| hung_up())?;
        let plan = plans.recv().map_err(|_| hung_up())?;
        last_rents = plan.rents;
        for t in slots.iter_mut().filter_map(|slot| slot.tenant.as_mut()) {
            t.leased = plan.leases[t.lane as usize];
            t.lease_peak = t.lease_peak.max(t.leased);
            if let Some(rents) = plan.rents {
                t.machine.apply_tier_rents(epoch, rents);
            }
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| match (slot.tenant, slot.done) {
            (Some(t), _) => lane_result(cfg, &t, LaneFate::Completed),
            (None, Some(r)) => r,
            (None, None) => LaneResult {
                lane: slot.lane,
                faults: 0,
                manager_calls: 0,
                pages_migrated: 0,
                lease_peak: 0,
                final_time_us: 0,
                balance: 0.0,
                fate: LaneFate::Departed,
                failovers: 0,
                demotions: 0,
                promotions: 0,
                revocations: 0,
                seized: 0,
            },
        })
        .collect())
}

/// One slot's epoch: build the tenant at its arrival, retire it at its
/// departure, and run it in between.
fn slot_epoch(
    cfg: &ShardEngineConfig,
    workload: &dyn TenantWorkload,
    slot: &mut LaneSlot,
    epoch: u32,
    last_rents: Option<[f64; MemTier::COUNT]>,
) -> LaneReport {
    let mut incidents = Vec::new();
    if epoch == slot.arrive {
        let mut tenant = build_tenant(cfg, slot.lane);
        if let Some(rents) = last_rents {
            tenant.machine.apply_tier_rents(epoch, rents);
        }
        slot.tenant = Some(tenant);
        if cfg.churn {
            incidents.push(format!("arrived (window {}..{})", slot.arrive, slot.depart));
        }
    }
    if epoch >= slot.depart {
        if let Some(t) = slot.tenant.take() {
            slot.done = Some(lane_result(cfg, &t, LaneFate::Departed));
            incidents.push("departed".to_string());
            let now = t.machine.now();
            return LaneReport::quiet(slot.lane, now, LaneStatus::Departing, incidents);
        }
    }
    match slot.tenant.as_mut() {
        Some(t) => run_tenant_epoch(cfg, workload, t, epoch, incidents),
        None => LaneReport::quiet(slot.lane, Timestamp::ZERO, LaneStatus::Idle, incidents),
    }
}
