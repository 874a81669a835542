//! One tenant lane: a whole machine with its manager, segment and
//! lane-local ledger, run one epoch at a time by its worker.

use std::panic::{catch_unwind, AssertUnwindSafe};

use epcm_core::tier::MemTier;
use epcm_core::types::{AccessKind, ManagerId, SegmentId, SegmentKind, UserId};
use epcm_core::watchdog::WatchdogConfig;
use epcm_sim::chaos::ChaosEvent;
use epcm_sim::clock::Micros;
use epcm_sim::cost::CostModel;

use super::worker::{CrossShardMsg, LaneReport, LaneStatus};
use super::{EconomyParams, LaneFate, LaneResult, ShardEngineConfig, TenantWorkload};
use crate::chaotic::ChaoticManager;
use crate::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use crate::machine::Machine;
use crate::manager::ManagerMode;
use crate::market::MemoryMarket;
use crate::spcm::{AllocationPolicy, RevocationConfig};

/// A tenant lane owned by a worker: a whole machine plus lane state.
pub(super) struct Tenant {
    pub(super) lane: u64,
    pub(super) machine: Machine,
    seg: SegmentId,
    /// The lane's [`ChaoticManager`], when chaos is armed; cleared once
    /// the manager is failed over so later injections are skipped.
    chaos_id: Option<ManagerId>,
    /// Spill frames leased to the lane, as of the last epoch plan.
    pub(super) leased: u64,
    pub(super) lease_peak: u64,
    faults: u64,
    base_faults: u64,
    crashed: bool,
    failovers_seen: u64,
    /// Lane-local market accounts (tiered economy runs): the default
    /// manager's, plus the chaotic manager's when chaos is armed.
    local_accounts: Vec<ManagerId>,
}

fn total_faults(m: &Machine) -> u64 {
    let k = m.kernel_stats();
    k.faults_missing + k.faults_protection + k.faults_cow
}

/// Builds lane `lane`'s machine, registers its managers, opens its
/// local accounts and warms its segment up.
pub(super) fn build_tenant(cfg: &ShardEngineConfig, lane: u64) -> Tenant {
    let eco = cfg.economy.as_ref();
    let mut machine = lane_machine(cfg);
    let id = machine.register_manager(Box::new(default_manager(eco)));
    machine.set_default_manager(id);
    // Under chaos the tenant's segment is owned by a ChaoticManager and
    // the kernel arms the upcall watchdog, with a short revocation
    // grace so byzantine replies escalate within the epoch. The default
    // manager above stays clean: it is the failover heir.
    let chaos_id = cfg.chaos.is_some().then(|| {
        let costs = CostModel::decstation_5000_200();
        machine.enable_watchdog(WatchdogConfig::from_costs(&costs));
        machine.spcm_mut().set_revocation_config(RevocationConfig {
            grace: Micros::from_millis(2),
            ..RevocationConfig::default()
        });
        machine.register_manager(Box::new(ChaoticManager::server(lane)))
    });
    // The Market admission policy refuses managers without accounts and
    // defers the broke, so in tiered mode the local accounts must exist
    // — opened at the lane's class income, primed with the posted base
    // rents and the arrival stake — before the first warm-up touch.
    let mut local_accounts = Vec::new();
    if let Some(eco) = eco.filter(|e| e.tiered()) {
        let income = eco.incomes[lane as usize];
        if let Some(market) = machine.spcm_mut().market_mut() {
            market.set_tier_rents(eco.schedule.prices());
            for mgr in std::iter::once(id).chain(chaos_id) {
                market.open_account(mgr, Some(income));
                market.credit(mgr, income * eco.stake_secs);
                local_accounts.push(mgr);
            }
        }
    }
    let seg = match chaos_id {
        Some(cid) => machine.create_segment_with(
            SegmentKind::Anonymous,
            cfg.pages_per_lane,
            cid,
            UserId::SYSTEM,
        ),
        None => machine.create_segment(SegmentKind::Anonymous, cfg.pages_per_lane),
    }
    .expect("tenant segment");
    for p in 0..cfg.pages_per_lane {
        machine
            .touch(seg, p, AccessKind::Write)
            .expect("tenant warm-up write");
    }
    let _ = machine.tick();
    let base_faults = total_faults(&machine);
    Tenant {
        lane,
        machine,
        seg,
        chaos_id,
        leased: 0,
        lease_peak: 0,
        faults: 0,
        base_faults,
        crashed: false,
        failovers_seen: 0,
        local_accounts,
    }
}

/// The lane's machine. In a tiered economy it carries the paper's
/// per-machine SPCM economy — a tier ladder plus a lane-local market
/// ledger enforcing admission (affordability), demotion (manager in the
/// red) and revocation (bankruptcy) locally, at tick granularity. The
/// engine has checked that the layout covers the lane's frames.
fn lane_machine(cfg: &ShardEngineConfig) -> Machine {
    let mut builder = Machine::builder(cfg.frames_per_lane as usize);
    if let Some((eco, layout)) = cfg
        .economy
        .as_ref()
        .and_then(|e| e.tiers.map(|layout| (e, layout)))
    {
        builder = builder.tiers(layout).allocation(AllocationPolicy::Market {
            market: MemoryMarket::new(eco.market.clone()),
            horizon: eco.horizon,
        });
    }
    builder.build()
}

/// The lane's default manager, with the promotion ladder when a tiered
/// economy gives it a budget.
fn default_manager(eco: Option<&EconomyParams>) -> DefaultSegmentManager {
    match eco.filter(|e| e.tiered() && e.promotion_budget > 0) {
        Some(e) => DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                promotion_budget: e.promotion_budget,
                promotion_threshold: e.promotion_threshold,
                ..DefaultManagerConfig::default()
            },
        ),
        None => DefaultSegmentManager::server(),
    }
}

/// The sum of a tenant's lane-local ledger balances (tiered economy
/// runs; 0.0 when the machine runs no local market).
fn local_balance(t: &Tenant) -> f64 {
    let Some(market) = t.machine.spcm().market() else {
        return 0.0;
    };
    t.local_accounts
        .iter()
        .filter_map(|&id| market.balance(id))
        .sum()
}

/// The lane's final results. `fate` is how its run ended unless its
/// manager crashed, which overrides it.
pub(super) fn lane_result(cfg: &ShardEngineConfig, t: &Tenant, fate: LaneFate) -> LaneResult {
    let tiered = cfg.economy.as_ref().is_some_and(|e| e.tiered());
    let (demotions, promotions, revocations, seized, balance) = if tiered {
        let (demotions, promotions) = t
            .local_accounts
            .first()
            .and_then(|&id| t.machine.manager(id))
            .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
            .map_or((0, 0), |mgr| {
                let s = mgr.manager_stats();
                (s.demotions, s.promotions)
            });
        let (demands, frames_seized, _, _) = t.machine.spcm().revocation_stats();
        (
            demotions,
            promotions,
            demands,
            frames_seized,
            local_balance(t),
        )
    } else {
        // The market lives on the coordinator; balance filled in there.
        (0, 0, 0, 0, 0.0)
    };
    LaneResult {
        lane: t.lane,
        faults: t.faults,
        manager_calls: t.machine.stats().manager_calls,
        pages_migrated: t.machine.kernel_stats().pages_migrated,
        lease_peak: t.lease_peak,
        final_time_us: t.machine.now().as_micros(),
        balance,
        fate: if t.crashed { LaneFate::Crashed } else { fate },
        failovers: t.failovers_seen,
        demotions,
        promotions,
        revocations,
        seized,
    }
}

/// Renders a caught panic payload (strings only; anything else is
/// summarized).
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one tenant through one epoch and returns its barrier report.
pub(super) fn run_tenant_epoch(
    cfg: &ShardEngineConfig,
    workload: &dyn TenantWorkload,
    t: &mut Tenant,
    epoch: u32,
    mut incidents: Vec<String>,
) -> LaneReport {
    let t0 = t.machine.now();
    let before = total_faults(&t.machine);
    let byzantine = inject_chaos(cfg, t, epoch, &mut incidents);
    run_rounds(cfg, workload, t, epoch, byzantine, &mut incidents);
    let faults = total_faults(&t.machine) - before;
    t.faults = total_faults(&t.machine) - t.base_faults;
    let resident: u64 = t
        .machine
        .spcm()
        .holdings()
        .iter()
        .map(|&(_, frames)| frames)
        .sum();
    let now = t.machine.now();
    let resident_by_tier = match cfg.economy {
        Some(_) => t.machine.resident_by_tier(),
        None => [0; MemTier::COUNT],
    };
    LaneReport {
        lane: t.lane,
        now,
        resident,
        faults,
        msgs: spill_requests(cfg, t, faults, byzantine),
        status: LaneStatus::Active,
        incidents,
        epoch_us: now.as_micros() - t0.as_micros(),
        resident_by_tier,
        local_balance: local_balance(t),
    }
}

/// Injects the chaos plan's event for this lane and epoch, if any, into
/// the lane's chaotic manager. Returns whether the event is byzantine.
fn inject_chaos(
    cfg: &ShardEngineConfig,
    t: &mut Tenant,
    epoch: u32,
    incidents: &mut Vec<String>,
) -> bool {
    let (Some(event), Some(cid)) = (
        cfg.chaos.as_ref().and_then(|plan| plan.roll(t.lane, epoch)),
        t.chaos_id,
    ) else {
        return false;
    };
    let injected = t
        .machine
        .with_manager(cid, |m, _| {
            if let Some(c) = m.as_any_mut().downcast_mut::<ChaoticManager>() {
                c.inject(event);
            }
            Ok(())
        })
        .is_ok();
    if injected {
        incidents.push(format!("chaos injected: {event}"));
    }
    injected && matches!(event, ChaosEvent::Byzantine)
}

/// Runs the epoch's workload rounds, containing an injected crash
/// (failing the lane over to its default manager) and auditing a
/// byzantine epoch with an explicit revocation.
fn run_rounds(
    cfg: &ShardEngineConfig,
    workload: &dyn TenantWorkload,
    t: &mut Tenant,
    epoch: u32,
    byzantine: bool,
    incidents: &mut Vec<String>,
) {
    let contained = catch_unwind(AssertUnwindSafe(|| {
        for round in 0..cfg.rounds_per_epoch {
            for (page, kind) in workload.round(t.lane, epoch, round, cfg.pages_per_lane, t.leased) {
                if cfg.economy.is_some() {
                    // Economy runs: bankruptcy can revoke a tenant down
                    // to zero frames, where no fault can be served.
                    // That is starvation, not an engine bug — the lane
                    // stalls for the rest of the epoch while income
                    // accrues toward re-admission.
                    if t.machine.touch(t.seg, page, kind).is_err() {
                        return true;
                    }
                } else {
                    t.machine
                        .touch(t.seg, page, kind)
                        .expect("tenant epoch access");
                }
            }
            let _ = t.machine.tick();
        }
        false
    }));
    match contained {
        Ok(starved) => {
            if starved {
                // Bill the stalled remainder of the epoch so the ladder
                // keeps moving: income accrues, and a recovered balance
                // re-admits the lane next epoch.
                let _ = t.machine.tick();
                incidents.push("starved: no frames until balance recovers".to_string());
            }
            if let Some(cid) = t.chaos_id.filter(|_| byzantine) {
                // Audit the lying manager: a polite revocation whose
                // reply the kernel checks against the grant ledger.
                let _ = t.machine.revoke(cid, 1 + t.lane % 2);
                incidents.push("byzantine reclaim audited".to_string());
            }
        }
        Err(payload) => {
            if cfg.chaos.is_none() {
                // Without injected chaos a panic here is an engine bug;
                // surface it to the worker (and the run's error path)
                // instead of silently swallowing it.
                std::panic::resume_unwind(payload);
            }
            t.crashed = true;
            incidents.push(format!(
                "crash contained: {}",
                panic_message(payload.as_ref())
            ));
            if let Some(cid) = t.chaos_id.take() {
                match t.machine.fail_over(cid) {
                    Ok(Some(heir)) => incidents.push(format!("failed over to manager {}", heir.0)),
                    Ok(None) => incidents.push("no heir; manager destroyed".to_string()),
                    Err(e) => incidents.push(format!("failover failed: {e}")),
                }
                t.failovers_seen = t.machine.watchdog().map_or(0, |d| d.failovers());
            }
        }
    }
    // Deadline misses escalate inside the machine; notice when the
    // ladder failed the chaotic manager over so we stop injecting.
    let failovers = t.machine.watchdog().map_or(0, |d| d.failovers());
    if failovers > t.failovers_seen {
        incidents.push(format!("watchdog failover #{failovers}"));
        t.failovers_seen = failovers;
        t.chaos_id = None;
    }
}

/// The lane's cross-shard requests at the barrier: under fault pressure
/// it asks the coordinator for spill frames; once pressure subsides it
/// returns half its lease per epoch. A byzantine epoch also asks back
/// more frames than the lane holds, pinning the coordinator's clamped
/// over-release path.
fn spill_requests(
    cfg: &ShardEngineConfig,
    t: &Tenant,
    faults: u64,
    byzantine: bool,
) -> Vec<CrossShardMsg> {
    let mut msgs = Vec::new();
    if faults > cfg.frames_per_lane / 2 {
        msgs.push(CrossShardMsg::Lease(1 + t.lane % 3));
    } else if t.leased > 0 {
        msgs.push(CrossShardMsg::Release(t.leased.div_ceil(2)));
    }
    if byzantine {
        msgs.push(CrossShardMsg::Release(t.leased + 2));
    }
    msgs
}
