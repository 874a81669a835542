//! The coordinator: the one thread that owns the spill pool and the
//! market, and the epoch barrier it runs as a sequence of named steps.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use epcm_core::shard::{ShardId, ShardLayout};
use epcm_core::tier::MemTier;
use epcm_core::types::ManagerId;
use epcm_sim::clock::Timestamp;
use epcm_sim::events::ShardedEventQueue;

use super::lane::panic_message;
use super::worker::{worker_loop, CrossShardMsg, EpochPlan, FromWorker, LaneReport, LaneStatus};
use super::{
    EconomyLedger, EpochSummary, LaneEpochSample, LaneFate, LaneResult, ShardEngineConfig,
    ShardEngineError, ShardRunReport, TenantWorkload,
};
use crate::market::{dram_frames, MarketConfig, MemoryMarket, PriceSchedule};

/// The spill-frame ledger: the coordinator-owned frames leased out
/// across shard boundaries. Spill frames are interchangeable, so the
/// ledger keeps counts only — how many are free and how many each lane
/// holds — and [`SpillPool::conserved`] checks that they add up to the
/// pool. Its state is a pure function of the (merged, deterministic)
/// request order.
#[derive(Debug, Clone)]
pub struct SpillPool {
    total: u64,
    free: u64,
    /// Frames leased to each lane, indexed by lane.
    leased: Vec<u64>,
}

impl SpillPool {
    /// A pool of `frames` spill frames, all free, serving lanes
    /// `0..lanes`.
    pub fn new(frames: u64, lanes: usize) -> SpillPool {
        SpillPool {
            total: frames,
            free: frames,
            leased: vec![0; lanes],
        }
    }

    /// Total frames the pool is responsible for.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free
    }

    /// Frames currently leased to `lane` (0 for a lane the pool does not
    /// serve).
    pub fn leased_to(&self, lane: u64) -> u64 {
        usize::try_from(lane)
            .ok()
            .and_then(|i| self.leased.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Leases up to `want` free frames to `lane`; returns how many were
    /// granted. A lane the pool does not serve is granted none.
    pub fn grant(&mut self, lane: u64, want: u64) -> u64 {
        let Some(held) = lease_of(&mut self.leased, lane) else {
            return 0;
        };
        let granted = want.min(self.free);
        *held += granted;
        self.free -= granted;
        granted
    }

    /// Returns up to `count` of `lane`'s frames to the pool; returns how
    /// many came back.
    pub fn release(&mut self, lane: u64, count: u64) -> u64 {
        let Some(held) = lease_of(&mut self.leased, lane) else {
            return 0;
        };
        let returned = count.min(*held);
        *held -= returned;
        self.free += returned;
        returned
    }

    /// Returns *all* of `lane`'s frames to the pool (departure or
    /// bankruptcy seizure).
    pub fn release_all(&mut self, lane: u64) -> u64 {
        self.release(lane, u64::MAX)
    }

    /// Frame conservation: the free frames and every lane's lease add up
    /// to exactly the pool's total.
    pub fn conserved(&self) -> bool {
        self.leased
            .iter()
            .try_fold(self.free, |sum, &held| sum.checked_add(held))
            == Some(self.total)
    }
}

/// `lane`'s entry in `leased`, if the pool serves it.
fn lease_of(leased: &mut [u64], lane: u64) -> Option<&mut u64> {
    usize::try_from(lane).ok().and_then(|i| leased.get_mut(i))
}

/// The coordinator's state across epochs. Each epoch barrier runs the
/// steps of [`Coordinator::epoch`] in order; every trace line goes
/// through [`Coordinator::line`].
struct Coordinator<'a> {
    cfg: &'a ShardEngineConfig,
    layout: ShardLayout,
    pool: SpillPool,
    market: MemoryMarket,
    /// The price schedule (economy runs only) and what it posted.
    schedule: Option<PriceSchedule>,
    rents: Vec<[f64; MemTier::COUNT]>,
    util_milli: Vec<u64>,
    samples: Vec<LaneEpochSample>,
    trace: Vec<String>,
    epochs: Vec<EpochSummary>,
    departures: u64,
    spill_over_releases: u64,
}

impl<'a> Coordinator<'a> {
    fn new(cfg: &'a ShardEngineConfig, layout: ShardLayout) -> Coordinator<'a> {
        // The coordinator ledger: on economy runs accounts open lazily
        // at each lane's arrival epoch (heterogeneous incomes);
        // otherwise the static market of `shard_market`.
        let market = match &cfg.economy {
            Some(eco) => {
                let mut market = MemoryMarket::new(eco.market.clone());
                market.set_tier_rents(eco.schedule.prices());
                market
            }
            None => shard_market(cfg.lanes),
        };
        Coordinator {
            cfg,
            layout,
            pool: SpillPool::new(cfg.spill_frames, cfg.lanes as usize),
            market,
            schedule: cfg.economy.as_ref().map(|e| e.schedule.clone()),
            rents: Vec::new(),
            util_milli: Vec::new(),
            samples: Vec::new(),
            trace: Vec::new(),
            epochs: Vec::new(),
            departures: 0,
            spill_over_releases: 0,
        }
    }

    fn tiered(&self) -> bool {
        self.cfg.economy.as_ref().is_some_and(|e| e.tiered())
    }

    /// Appends one line, stamped with `at`, to the merged trace.
    fn line(&mut self, at: Timestamp, what: fmt::Arguments<'_>) {
        self.trace.push(format!("[{:>8}us] {what}", at.as_micros()));
    }

    /// Collects every shard's reports, indexed by shard id (arrival
    /// order is scheduling noise and must not matter), and concatenates
    /// them in shard order. Shards hold contiguous ascending lane runs,
    /// so the result is lane-ascending — the grouping-invariant
    /// insertion order the merge depends on.
    fn collect(
        &self,
        rx: &mpsc::Receiver<FromWorker>,
    ) -> Result<Vec<LaneReport>, ShardEngineError> {
        let mut per_shard = vec![Vec::new(); self.layout.shards() as usize];
        for _ in 0..self.layout.shards() {
            let (shard, message) = match rx.recv() {
                Ok(FromWorker::Reports(shard, reports)) => {
                    per_shard[shard.index()] = reports;
                    continue;
                }
                Ok(FromWorker::Failed(shard, message)) => (shard.0, message),
                Err(_) => (u32::MAX, "a worker exited without reporting".to_string()),
            };
            return Err(ShardEngineError::WorkerPanicked { shard, message });
        }
        Ok(per_shard.into_iter().flatten().collect())
    }

    /// One epoch barrier, step by step, over the collected reports.
    fn epoch(&mut self, epoch: u32, reports: &[LaneReport]) -> EpochPlan {
        debug_assert!(reports.iter().enumerate().all(|(i, r)| r.lane == i as u64));
        self.open_arrivals(epoch, reports);
        self.exchange(reports);
        self.retire(reports);
        let demand = self.bill(epoch, reports);
        let rents = self.post_rents(epoch, demand, reports);
        EpochPlan {
            leases: self.pool.leased.clone(),
            rents,
        }
    }

    /// Economy runs: lanes join the coordinator ledger at their arrival
    /// epoch — the account must exist (income set, stake credited)
    /// before this epoch's I/O charges and billing land on it.
    /// Lane-ascending, so the open/credit order is grouping-invariant.
    fn open_arrivals(&mut self, epoch: u32, reports: &[LaneReport]) {
        let Some(eco) = &self.cfg.economy else {
            return;
        };
        for r in reports {
            if self.cfg.churn_window(r.lane).0 == epoch {
                let mgr = ManagerId(r.lane as u32);
                let income = eco.incomes[r.lane as usize];
                self.market.open_account(mgr, Some(income));
                self.market.credit(mgr, income * eco.stake_secs);
            }
        }
    }

    /// Merges the lanes' lease and release messages into one global
    /// `(time, seq)` order and applies them to the pool.
    fn exchange(&mut self, reports: &[LaneReport]) {
        let mut queue = ShardedEventQueue::new(self.layout.shards() as usize);
        for r in reports {
            for &msg in &r.msgs {
                queue.schedule(
                    self.layout.shard_of_lane(r.lane).index(),
                    r.now,
                    (r.lane, msg),
                );
            }
        }
        while let Some((_, time, (lane, msg))) = queue.next_merged() {
            match msg {
                CrossShardMsg::Lease(frames) => {
                    let granted = self.pool.grant(lane, frames);
                    // Each exchanged frame pays the market's I/O charge:
                    // the serialization point bills in merged order.
                    self.market.charge_io(ManagerId(lane as u32), granted);
                    let free = self.pool.free_frames();
                    self.line(
                        time,
                        format_args!("lane {lane:>2} lease +{granted}/{frames} pool={free}"),
                    );
                }
                CrossShardMsg::Release(frames) => {
                    let returned = self.pool.release(lane, frames);
                    let free = self.pool.free_frames();
                    self.line(
                        time,
                        format_args!("lane {lane:>2} release -{returned} pool={free}"),
                    );
                    if returned < frames {
                        // The pool clamped an over-release: the lane
                        // offered back frames it never held. Count and
                        // trace it; conservation is untouched.
                        self.spill_over_releases += 1;
                        self.line(
                            time,
                            format_args!(
                                "lane {lane:>2} spill_over_release want={frames} held={returned}"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Traces each lane's incidents, in lane order, and retires the
    /// departing lanes: their leases go back to the pool and their
    /// accounts are settled. Chaos-free, churn-free runs report no
    /// incidents and no departures, so this adds no trace bytes.
    fn retire(&mut self, reports: &[LaneReport]) {
        for r in reports {
            for incident in &r.incidents {
                self.line(r.now, format_args!("lane {:>2} {incident}", r.lane));
            }
            if r.status == LaneStatus::Departing {
                let seized = self.pool.release_all(r.lane);
                let settled = self
                    .market
                    .settle_account(ManagerId(r.lane as u32))
                    .unwrap_or(0.0);
                self.departures += 1;
                self.line(
                    r.now,
                    format_args!(
                        "lane {:>2} departed: leases -{seized} settled {settled:.2} drams",
                        r.lane
                    ),
                );
            }
        }
    }

    /// Bills every lane's barrier holdings on the one market, in lane
    /// order, and seizes the spill leases of lanes the bill left
    /// bankrupt. Records the epoch's summary and returns its demand.
    fn bill(&mut self, epoch: u32, reports: &[LaneReport]) -> u64 {
        let barrier = reports
            .iter()
            .map(|r| r.now)
            .max()
            .expect("at least one lane");
        let demand: u64 = reports.iter().map(|r| r.resident + r.faults).sum();
        let capacity = self.layout.total_frames();
        let contended = demand > capacity;
        // Each lane's holdings, priced per tier at the posted rents on a
        // tiered economy and all DRAM otherwise; spill leases are DRAM.
        let tiered = self.tiered();
        let holdings: Vec<(ManagerId, [u64; MemTier::COUNT])> = reports
            .iter()
            .map(|r| {
                let mut frames = if tiered {
                    r.resident_by_tier
                } else {
                    dram_frames(r.resident)
                };
                frames[MemTier::Dram.index()] += self.pool.leased_to(r.lane);
                (ManagerId(r.lane as u32), frames)
            })
            .collect();
        for mgr in self.market.bill(barrier, &holdings, contended, None) {
            let lane = u64::from(mgr.0);
            let seized = self.pool.release_all(lane);
            if seized > 0 {
                self.line(
                    barrier,
                    format_args!("lane {lane:>2} bankrupt: seized {seized} spill frames"),
                );
            }
        }
        let leased: u64 = self.pool.leased.iter().sum();
        let pool_free = self.pool.free_frames();
        self.line(
            barrier,
            format_args!(
                "epoch {epoch}: demand={demand}/{capacity} contended={contended} \
                 leased={leased} pool={pool_free}"
            ),
        );
        self.epochs.push(EpochSummary {
            epoch,
            demand,
            capacity,
            contended,
            pool_free,
            leased,
        });
        demand
    }

    /// Price discovery (economy runs): folds the epoch's integer DRAM
    /// utilization into the schedule, posts the new rents on the
    /// coordinator ledger and samples every active lane. Pure integer →
    /// f64 pipeline, so the trajectory is a function of (seed, epoch,
    /// utilization) alone — never of the grouping. Deliberately no trace
    /// line: a neutral economy run equals a plain run on every report
    /// field but `economy`.
    fn post_rents(
        &mut self,
        epoch: u32,
        demand: u64,
        reports: &[LaneReport],
    ) -> Option<[f64; MemTier::COUNT]> {
        let util_milli = demand.saturating_mul(1000) / self.layout.total_frames().max(1);
        let rents = self.schedule.as_mut()?.observe(util_milli);
        self.market.set_tier_rents(rents);
        self.rents.push(rents);
        self.util_milli.push(util_milli);
        let tiered = self.tiered();
        for r in reports.iter().filter(|r| r.status == LaneStatus::Active) {
            let balance = if tiered {
                r.local_balance
            } else {
                self.market.balance(ManagerId(r.lane as u32)).unwrap_or(0.0)
            };
            self.samples.push(LaneEpochSample {
                epoch,
                lane: r.lane,
                epoch_us: r.epoch_us,
                resident_by_tier: r.resident_by_tier,
                balance,
                bankrupt: balance < 0.0,
            });
        }
        Some(rents)
    }

    /// The run's report, from the lanes' results in lane order.
    fn finish(self, mut lanes: Vec<LaneResult>) -> ShardRunReport {
        // Tiered economy: the worker already filled the lane-local
        // ledger balance; the coordinator ledger is reported through the
        // EconomyLedger totals instead.
        if !self.tiered() {
            for r in &mut lanes {
                r.balance = self
                    .market
                    .balance(ManagerId(r.lane as u32))
                    .expect("every lane has an account");
            }
        }
        let failovers = lanes.iter().map(|l| l.failovers).sum();
        let crashes = lanes.iter().filter(|l| l.fate == LaneFate::Crashed).count() as u64;
        let market = &self.market;
        let economy = self.cfg.economy.as_ref().map(|_| {
            let (residual, residual_bound) = (market.ledger_residual(), market.residual_bound());
            assert!(
                residual.abs() < residual_bound,
                "economy coordinator ledger residual {residual} exceeded its bound {residual_bound}"
            );
            EconomyLedger {
                rents: self.rents,
                util_milli: self.util_milli,
                samples: self.samples,
                total_income: market.total_income(),
                total_charged: market.total_charged(),
                residual,
                residual_bound,
            }
        });
        ShardRunReport {
            lanes,
            epochs: self.epochs,
            trace: self.trace,
            pool_free: self.pool.free_frames(),
            conserved: self.pool.conserved(),
            ledger_residual: market.ledger_residual(),
            failovers,
            crashes,
            departures: self.departures,
            spill_over_releases: self.spill_over_releases,
            economy,
        }
    }
}

/// Market configuration of the shard economy: charges high enough that
/// epoch-scale holdings move balances visibly, income spread per lane so
/// every balance is distinct.
fn shard_market(lanes: u32) -> MemoryMarket {
    let config = MarketConfig {
        charge_per_mb_sec: 200.0,
        io_charge_per_block: 0.05,
        ..MarketConfig::default()
    };
    let mut market = MemoryMarket::new(config);
    for lane in 0..lanes {
        market.open_account(ManagerId(lane), Some(20.0 + 3.0 * f64::from(lane)));
    }
    market
}

/// The fallible engine entry point: like [`super::run_with`], but a
/// worker panic outside per-lane containment surfaces as a structured
/// [`ShardEngineError`] carrying the shard and panic message instead of
/// aborting the caller through a bare `join` panic.
///
/// # Errors
///
/// * [`ShardEngineError::NoLanes`], [`ShardEngineError::IncomesMismatch`]
///   or [`ShardEngineError::TierLayoutMismatch`] for a configuration no
///   run can use, before any worker starts.
/// * [`ShardEngineError::WorkerPanicked`] when a worker dies.
pub fn try_run_with(
    cfg: &ShardEngineConfig,
    shards: u32,
    workload: &dyn TenantWorkload,
) -> Result<ShardRunReport, ShardEngineError> {
    check_config(cfg)?;
    let layout = cfg.layout(shards);
    let mut coordinator = Coordinator::new(cfg, layout);
    let lanes = thread::scope(|scope| {
        let (report_tx, report_rx) = mpsc::channel();
        let workers: Vec<_> = (0..layout.shards())
            .map(|s| {
                let (plan_tx, plan_rx) = mpsc::channel();
                let report_tx = report_tx.clone();
                let shard = ShardId(s);
                // Contain the whole worker: anything that escapes the
                // per-lane containment is reported as a structured
                // failure with shard context, never a bare join abort.
                let worker = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(cfg, layout, shard, workload, &plan_rx, &report_tx)
                    }))
                    .unwrap_or_else(|payload| {
                        let message = panic_message(payload.as_ref());
                        let _ = report_tx.send(FromWorker::Failed(shard, message.clone()));
                        Err(message)
                    })
                });
                (plan_tx, worker)
            })
            .collect();
        drop(report_tx);
        for epoch in 0..cfg.epochs {
            let reports = coordinator.collect(&report_rx)?;
            let plan = coordinator.epoch(epoch, &reports);
            for (plan_tx, _) in &workers {
                // A send to a failed worker's closed channel is fine:
                // its Failed report surfaces on the next barrier.
                let _ = plan_tx.send(plan.clone());
            }
        }
        // Each worker returns its lanes' results; shard order is lane
        // order.
        let mut lanes = Vec::with_capacity(cfg.lanes as usize);
        for (s, (_, worker)) in workers.into_iter().enumerate() {
            let results = worker
                .join()
                .unwrap_or_else(|_| Err("worker thread panicked".into()));
            lanes.extend(results.map_err(|message| ShardEngineError::WorkerPanicked {
                shard: s as u32,
                message,
            })?);
        }
        Ok(lanes)
    })?;
    Ok(coordinator.finish(lanes))
}

/// Rejects the configurations the coordinator and the lanes cannot be
/// built from.
fn check_config(cfg: &ShardEngineConfig) -> Result<(), ShardEngineError> {
    if cfg.lanes == 0 {
        return Err(ShardEngineError::NoLanes);
    }
    let Some(eco) = &cfg.economy else {
        return Ok(());
    };
    if eco.incomes.len() != cfg.lanes as usize {
        return Err(ShardEngineError::IncomesMismatch {
            lanes: cfg.lanes,
            incomes: eco.incomes.len(),
        });
    }
    match eco.tiers {
        Some(layout) if layout.total() != cfg.frames_per_lane => {
            Err(ShardEngineError::TierLayoutMismatch {
                layout: layout.total(),
                frames_per_lane: cfg.frames_per_lane,
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use epcm_sim::clock::Micros;

    use super::*;
    use crate::shard::EconomyParams;

    #[test]
    fn pool_grants_and_conserves() {
        let mut pool = SpillPool::new(10, 8);
        assert_eq!(pool.total(), 10);
        assert_eq!(pool.grant(3, 4), 4);
        assert_eq!(pool.leased_to(3), 4);
        assert_eq!(pool.free_frames(), 6);
        assert!(pool.conserved());
        assert_eq!(pool.release(3, 2), 2);
        assert_eq!(pool.leased_to(3), 2);
        assert!(pool.conserved());
        // Over-asking is clamped on both sides.
        assert_eq!(pool.grant(5, 100), 8);
        assert_eq!(pool.free_frames(), 0);
        assert_eq!(pool.release(5, 100), 8);
        assert_eq!(pool.release(7, 1), 0);
        assert!(pool.conserved());
        // A lane the pool does not serve holds nothing and gets nothing.
        assert_eq!(pool.grant(8, 1), 0);
        assert_eq!(pool.grant(u64::MAX, 1), 0);
        assert_eq!(pool.leased_to(u64::MAX), 0);
        assert_eq!(pool.release(8, 1), 0);
        assert!(pool.conserved());
    }

    #[test]
    fn pool_release_all_seizes_everything() {
        let mut pool = SpillPool::new(6, 3);
        pool.grant(1, 3);
        pool.grant(2, 2);
        assert_eq!(pool.release_all(1), 3);
        assert_eq!(pool.leased_to(1), 0);
        assert_eq!(pool.free_frames(), 4);
        assert!(pool.conserved());
    }

    /// A report from an active lane at `now` holding `resident` frames.
    fn active(lane: u64, now: Timestamp, resident: u64) -> LaneReport {
        LaneReport {
            resident,
            ..LaneReport::quiet(lane, now, LaneStatus::Active, Vec::new())
        }
    }

    #[test]
    fn bankrupt_lane_forfeits_its_spill_lease() {
        // Two flat lanes on a coordinator ledger whose DRAM rent dwarfs
        // their income: lane 0 leases spill frames and holds frames for a
        // whole second, so the barrier bill leaves it in the red.
        let cfg = ShardEngineConfig {
            lanes: 2,
            frames_per_lane: 16,
            pages_per_lane: 24,
            epochs: 1,
            rounds_per_epoch: 1,
            spill_frames: 8,
            seed: 7,
            chaos: None,
            churn: false,
            economy: Some(EconomyParams {
                incomes: vec![1.0, 1.0],
                stake_secs: 0.0,
                market: MarketConfig {
                    free_when_uncontended: false,
                    ..MarketConfig::default()
                },
                schedule: PriceSchedule::flat([4_000.0, 1_000.0, 400.0]),
                tiers: None,
                horizon: Micros::from_millis(1),
                promotion_budget: 0,
                promotion_threshold: 2,
            }),
        };
        let mut coordinator = Coordinator::new(&cfg, cfg.layout(1));
        let now = Timestamp::from_micros(1_000_000);
        let mut leaser = active(0, now, 16);
        leaser.msgs.push(CrossShardMsg::Lease(4));
        let plan = coordinator.epoch(0, &[leaser, active(1, now, 0)]);
        let trace = coordinator.trace.join("\n");
        assert!(
            trace.contains("lane  0 lease +4/4 pool=4"),
            "the lease never landed:\n{trace}"
        );
        assert!(
            trace.contains("[ 1000000us] lane  0 bankrupt: seized 4 spill frames"),
            "no seizure traced:\n{trace}"
        );
        assert!(!trace.contains("lane  1 bankrupt"), "{trace}");
        assert_eq!(coordinator.pool.leased_to(0), 0);
        assert_eq!(coordinator.pool.free_frames(), 8);
        assert_eq!(plan.leases, [0, 0]);
        assert!(coordinator.pool.conserved());
    }
}
