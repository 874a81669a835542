//! The sharded multi-tenant engine: intra-run concurrency with
//! byte-identical output for any worker count.
//!
//! This module runs `lanes` tenants, each a full single-threaded
//! [`Machine`] (kernel + store + SPCM + default manager) owning one
//! positional frame range of the global pool, and groups contiguous
//! lanes onto `shards` worker threads via [`ShardLayout`]. Workers
//! advance their tenants through bulk-synchronous **epochs**. At every
//! epoch barrier the cross-shard effects travel to one coordinator as
//! messages, are merged into one global order on the `(time, seq)`
//! tie-break by `ShardedEventQueue`, and are applied there: spill-frame
//! leases against the [`SpillPool`] (the cross-shard `MigrateFrame`
//! analogue) and billing against one global [`MemoryMarket`], never
//! touched from worker threads. The pool keeps counts only, one per
//! lane: spill frames are interchangeable, and like the paper's SPCM
//! (§2.4) the coordinator needs to know how many frames each holder
//! has, never which.
//!
//! The coordinator runs each barrier as named steps, in order: collect
//! the shards' reports, open arriving accounts, exchange (apply lease
//! and release messages in merged order), retire departing lanes, bill
//! (and seize the leases of lanes left bankrupt), post rents, and plan.
//! `coordinator` holds the pool, the coordinator and [`try_run_with`];
//! `lane` builds and runs one tenant; `worker` holds the worker loop and
//! the channel messages; this file the configuration and report types.
//!
//! # Why `--shards 1` and `--shards N` are byte-identical
//!
//! 1. A lane's simulation depends only on its own config and the
//!    epoch plans it received — never on which worker ran it.
//! 2. The coordinator ingests reports indexed by shard and concatenates
//!    them lane-ascending, so message *insertion order* (and hence each
//!    message's global `seq`) is grouping-invariant; the merge replays
//!    the exact unsharded `(time, seq)` order (pinned by proptests in
//!    `epcm-sim`).
//! 3. All floating-point market arithmetic happens on the coordinator
//!    in lane order, so every balance is bit-identical.
//! 4. Thread scheduling only affects *when* reports arrive; the
//!    coordinator waits for all of them before acting.
//!
//! [`Machine`]: crate::machine::Machine
//! [`MemoryMarket`]: crate::market::MemoryMarket

use std::fmt;

use epcm_core::shard::ShardLayout;
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::AccessKind;
use epcm_sim::chaos::ChaosPlan;
use epcm_sim::clock::Micros;
use epcm_sim::rng::Rng;

use crate::market::{MarketConfig, PriceSchedule};

mod coordinator;
mod lane;
mod worker;

pub use coordinator::{try_run_with, SpillPool};

/// Configures one sharded multi-tenant run. The *logical* workload —
/// lanes, frames, pages, epochs — is fixed here; the worker shard count
/// is a separate argument to [`run`] precisely because it must not
/// change any output byte.
#[derive(Debug, Clone)]
pub struct ShardEngineConfig {
    /// Number of tenant lanes (one machine, one manager, one account each).
    pub lanes: u32,
    /// Physical frames owned by each lane.
    pub frames_per_lane: u64,
    /// Pages in each tenant's segment (overcommitted past its frames).
    pub pages_per_lane: u64,
    /// Bulk-synchronous epochs to run.
    pub epochs: u32,
    /// Workload rounds each tenant runs per epoch.
    pub rounds_per_epoch: u32,
    /// Coordinator-owned spill frames available for cross-shard leases.
    pub spill_frames: u64,
    /// Seed mixed into every tenant's access-pattern generator.
    pub seed: u64,
    /// Chaos-injection schedule. `None` (the default constructions)
    /// leaves every path byte-identical to a chaos-free build: no
    /// watchdog is armed, no [`ChaoticManager`] is registered, and the
    /// coordinator emits no incident lines.
    ///
    /// [`ChaoticManager`]: crate::chaotic::ChaoticManager
    pub chaos: Option<ChaosPlan>,
    /// Tenant churn: when set, each lane arrives and departs at epochs
    /// drawn deterministically from the seed, exercising mid-run
    /// account settlement and lease reclamation.
    pub churn: bool,
    /// The memory-market economy layer. `None` (every pre-economy
    /// construction) leaves all output byte-identical to pre-economy
    /// builds: the static `shard_market` is used, lanes are built
    /// flat, and no [`EconomyLedger`] is attached to the report.
    pub economy: Option<EconomyParams>,
}

/// The optional economy layer over a sharded run: heterogeneous
/// per-lane incomes, a coordinator [`PriceSchedule`] posting per-tier
/// rents each epoch, and (in tiered mode) lane-local market ledgers
/// that make the demotion ladder and the revocation protocol live
/// enforcement mechanisms.
///
/// Two ledgers exist in tiered mode, deliberately: the *coordinator*
/// ledger prices the shared machine (it bills at epoch barriers in
/// lane order, funds spill leases and settles departures — the f64
/// serialization point, exactly as in a plain run), while each lane's
/// *local* ledger is the paper's per-machine SPCM economy (§2.4): the
/// machine bills it at tick time, the default manager demotes cold
/// pages down the tier ladder when it is in the red, and
/// [`Machine::tick`] revokes frames from bankrupt managers. Both are
/// driven by the same posted rents.
///
/// [`Machine::tick`]: crate::machine::Machine::tick
#[derive(Debug, Clone)]
pub struct EconomyParams {
    /// Per-lane income rates (drams per second), indexed by lane. Must
    /// have exactly `lanes` entries. A lane's account is opened at its
    /// *arrival* epoch with this income — mid-run churn arrivals join
    /// the economy at their class rate, they do not bank income while
    /// absent.
    pub incomes: Vec<f64>,
    /// Arrival stake, in seconds of the lane's own income: the one-off
    /// credit a tenant brings, without which a zero-balance account
    /// could not afford its first frame request.
    pub stake_secs: f64,
    /// Base market parameters for the coordinator ledger and (tiered
    /// mode) each lane-local ledger.
    pub market: MarketConfig,
    /// The coordinator's price schedule. Its base rents are posted
    /// before epoch 0; each epoch's observed DRAM utilization folds
    /// into it and the updated rents are broadcast to the lanes at the
    /// epoch barrier.
    pub schedule: PriceSchedule,
    /// When set, every lane machine is built with this tier layout
    /// (total must equal `frames_per_lane`) and a lane-local market
    /// ledger. When `None`, lanes are built exactly as in a plain run
    /// and the economy is observation-and-billing only.
    pub tiers: Option<TierLayout>,
    /// Affordability horizon for lane-local market admission (tiered
    /// mode): a frame request must be affordable for this long.
    pub horizon: Micros,
    /// Per-tick hot-page promotion budget for each lane's default
    /// manager (tiered mode; see
    /// [`DefaultManagerConfig::promotion_budget`]). 0 — the default in
    /// every committed preset — disables the ladder, keeping existing
    /// economy output byte-identical.
    ///
    /// [`DefaultManagerConfig::promotion_budget`]:
    ///     crate::default_manager::DefaultManagerConfig::promotion_budget
    pub promotion_budget: u64,
    /// Heat threshold for the lanes' promotion ladder (only meaningful
    /// with a nonzero `promotion_budget`).
    pub promotion_threshold: u64,
}

impl EconomyParams {
    /// Whether lanes run tiered machines with local enforcement.
    pub fn tiered(&self) -> bool {
        self.tiers.is_some()
    }
}

impl ShardEngineConfig {
    /// The reduced configuration used by `reproduce --shards` and the
    /// determinism tests: small enough to run in debug CI, overcommitted
    /// enough that every epoch faults, leases and bills.
    pub fn quick() -> ShardEngineConfig {
        ShardEngineConfig {
            lanes: 12,
            frames_per_lane: 32,
            pages_per_lane: 48,
            epochs: 3,
            rounds_per_epoch: 2,
            spill_frames: 24,
            seed: 0x5eed_cafe,
            chaos: None,
            churn: false,
            economy: None,
        }
    }

    /// A heavier configuration for the release-mode stress loop: more
    /// lanes and epochs, so interleaving bugs have more room to race.
    pub fn stress() -> ShardEngineConfig {
        ShardEngineConfig {
            lanes: 24,
            frames_per_lane: 32,
            pages_per_lane: 56,
            epochs: 4,
            rounds_per_epoch: 2,
            spill_frames: 40,
            seed: 0x57e5_5eed,
            chaos: None,
            churn: false,
            economy: None,
        }
    }

    /// The epoch window `[arrive, depart)` in which `lane` is active.
    /// A pure function of `(seed, lane)` — never of the worker grouping
    /// — so churn decisions are shard-count invariant. Without churn
    /// every lane runs the whole span.
    pub fn churn_window(&self, lane: u64) -> (u32, u32) {
        if !self.churn {
            return (0, self.epochs);
        }
        let mut rng = Rng::seed_from(
            self.seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4_0a05_a7c4_0a05,
        );
        let third = self.epochs / 3;
        let arrive = rng.below(u64::from(third) + 1) as u32;
        let depart = self.epochs - third + rng.below(u64::from(third) + 1) as u32;
        (arrive, depart.max(arrive + 1).min(self.epochs))
    }

    /// The [`ShardLayout`] of this configuration under `shards` workers
    /// (clamped to the lane count — an empty shard does no work).
    pub fn layout(&self, shards: u32) -> ShardLayout {
        let shards = shards.clamp(1, self.lanes);
        ShardLayout::new(shards, u64::from(self.lanes), self.frames_per_lane)
    }
}

/// Coordinator-side summary of one epoch, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Epoch index.
    pub epoch: u32,
    /// Global demand signal: resident frames plus epoch faults.
    pub demand: u64,
    /// Laned frame capacity the demand is judged against.
    pub capacity: u64,
    /// Whether billing ran contended.
    pub contended: bool,
    /// Spill frames still free after the epoch's exchanges.
    pub pool_free: u64,
    /// Spill frames leased out across all lanes after the epoch.
    pub leased: u64,
}

/// How a lane's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneFate {
    /// Ran every epoch of its window to completion.
    Completed,
    /// Departed mid-run under churn; results are a departure snapshot.
    Departed,
    /// Its manager crashed at least once; the lane was failed over to
    /// the default manager and kept running.
    Crashed,
}

impl fmt::Display for LaneFate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LaneFate::Completed => "completed",
            LaneFate::Departed => "departed",
            LaneFate::Crashed => "crashed",
        })
    }
}

/// Final per-lane results.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneResult {
    /// The lane.
    pub lane: u64,
    /// Faults across all epochs (warm-up excluded).
    pub faults: u64,
    /// Manager invocations across the whole run.
    pub manager_calls: u64,
    /// Page frames migrated by the lane's kernel.
    pub pages_migrated: u64,
    /// Highest spill lease the lane held at any barrier.
    pub lease_peak: u64,
    /// The lane's final virtual time (µs).
    pub final_time_us: u64,
    /// The lane's final market balance (drams).
    pub balance: f64,
    /// How the lane's run ended.
    pub fate: LaneFate,
    /// Watchdog-driven manager failovers the lane's machine performed.
    pub failovers: u64,
    /// Voluntary demotions the lane's default manager performed down
    /// the tier ladder (tiered economy runs; 0 otherwise).
    pub demotions: u64,
    /// Hot-page promotions the lane's default manager performed up the
    /// tier ladder (tiered economy runs with a promotion budget; 0
    /// otherwise).
    pub promotions: u64,
    /// Revocation demands the lane's SPCM issued against bankrupt
    /// managers (tiered economy runs; 0 otherwise).
    pub revocations: u64,
    /// Frames the lane's SPCM seized by force after a revocation
    /// grace deadline expired unmet (tiered economy runs; 0 otherwise).
    pub seized: u64,
}

/// Everything one sharded run produced. Contains no trace of the worker
/// count that produced it: `run(cfg, 1)` and `run(cfg, n)` return equal
/// reports (pinned by the `reproduce` registry test, `tests/scenarios.rs`,
/// and by `tests/shard_determinism.rs` on arbitrary small engines).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRunReport {
    /// Per-lane results, lane-ascending.
    pub lanes: Vec<LaneResult>,
    /// Per-epoch coordinator summaries.
    pub epochs: Vec<EpochSummary>,
    /// The merged global trace: every cross-shard exchange and billing
    /// decision, in deterministic `(time, seq)` order.
    pub trace: Vec<String>,
    /// Spill frames free at the end of the run.
    pub pool_free: u64,
    /// Whether the spill ledger conserved every frame (always expected).
    pub conserved: bool,
    /// The market ledger residual (expected ~0; conservation check).
    pub ledger_residual: f64,
    /// Manager failovers across all lanes (watchdog escalations plus
    /// crash containments).
    pub failovers: u64,
    /// Lanes whose manager crashed at least once.
    pub crashes: u64,
    /// Lanes that departed mid-run under churn.
    pub departures: u64,
    /// Release messages asking back more frames than the lane held;
    /// the pool clamps them, the coordinator counts and traces them.
    pub spill_over_releases: u64,
    /// The economy ledger — present exactly when the run was
    /// configured with [`ShardEngineConfig::economy`].
    pub economy: Option<EconomyLedger>,
}

/// Everything the economy layer observed across one sharded run: the
/// coordinator's rent trajectory, the utilization sequence that drove
/// it, per-(epoch, lane) samples, and the coordinator-ledger totals.
/// The `epcm-economy` crate aggregates this into per-income-class
/// outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct EconomyLedger {
    /// Rents posted after each epoch's utilization was observed
    /// (epoch-indexed; entry `e` governs epoch `e + 1`).
    pub rents: Vec<[f64; MemTier::COUNT]>,
    /// DRAM utilization fed to the schedule each epoch, in milli-units
    /// (`1000 · demand / capacity`, integer arithmetic).
    pub util_milli: Vec<u64>,
    /// Per-epoch samples of every *active* lane, epoch-major and
    /// lane-ascending within an epoch.
    pub samples: Vec<LaneEpochSample>,
    /// Coordinator-ledger income total at the end of the run.
    pub total_income: f64,
    /// Coordinator-ledger charge total at the end of the run.
    pub total_charged: f64,
    /// Coordinator-ledger conservation residual (see
    /// [`MemoryMarket::ledger_residual`]).
    ///
    /// [`MemoryMarket::ledger_residual`]: crate::market::MemoryMarket::ledger_residual
    pub residual: f64,
    /// The documented f64 bound the residual must stay within (see
    /// [`MemoryMarket::residual_bound`]); economy runs assert it.
    ///
    /// [`MemoryMarket::residual_bound`]: crate::market::MemoryMarket::residual_bound
    pub residual_bound: f64,
}

/// One active lane's economy observation at one epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneEpochSample {
    /// The epoch.
    pub epoch: u32,
    /// The lane.
    pub lane: u64,
    /// Virtual time the lane consumed this epoch (µs) — the per-class
    /// latency histograms are built from these.
    pub epoch_us: u64,
    /// The lane's resident frames per memory tier at the barrier.
    pub resident_by_tier: [u64; MemTier::COUNT],
    /// The lane's ledger balance: lane-local in tiered mode, the
    /// coordinator account otherwise.
    pub balance: f64,
    /// Whether that ledger was in the red at the barrier.
    pub bankrupt: bool,
}

/// Why a sharded run could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEngineError {
    /// A worker thread panicked outside per-lane containment.
    WorkerPanicked {
        /// The shard whose worker died.
        shard: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The configuration has no lanes.
    NoLanes,
    /// An economy run's incomes do not give each lane exactly one.
    IncomesMismatch {
        /// Lanes configured.
        lanes: u32,
        /// Incomes supplied.
        incomes: usize,
    },
    /// An economy run's tier layout does not cover exactly a lane's frames.
    TierLayoutMismatch {
        /// Frames the tier layout holds.
        layout: u64,
        /// Frames each lane's machine has.
        frames_per_lane: u64,
    },
}

impl fmt::Display for ShardEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardEngineError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            ShardEngineError::NoLanes => write!(f, "the engine needs at least one lane"),
            ShardEngineError::IncomesMismatch { lanes, incomes } => {
                write!(f, "economy has {incomes} incomes for {lanes} lanes")
            }
            ShardEngineError::TierLayoutMismatch {
                layout,
                frames_per_lane,
            } => write!(
                f,
                "economy tier layout holds {layout} frames, a lane has {frames_per_lane}"
            ),
        }
    }
}

impl std::error::Error for ShardEngineError {}

/// Plans each tenant's accesses. Implementations must be deterministic
/// functions of their arguments: the plan may depend on the lane, the
/// epoch, and the lane's current spill lease, but never on the worker
/// grouping — that is what keeps the run shard-count invariant. `Sync`
/// because one instance is shared by every worker thread.
pub trait TenantWorkload: Sync {
    /// One round of `(page, kind)` accesses over a `pages`-page
    /// segment for `lane`, given its currently leased spill frames.
    fn round(
        &self,
        lane: u64,
        epoch: u32,
        round: u32,
        pages: u64,
        leased: u64,
    ) -> Vec<(u64, AccessKind)>;
}

/// The built-in hot/cold tenant workload: a re-referenced hot set
/// followed by a cold write scan whose length shrinks as the lane's
/// spill lease grows (leased frames absorb cold pages), closing the
/// feedback loop between the economy and the fault rate.
#[derive(Debug, Clone, Default)]
pub struct DefaultTenantWorkload {
    /// Mixed into the per-lane generator seed.
    pub seed: u64,
}

impl TenantWorkload for DefaultTenantWorkload {
    fn round(
        &self,
        lane: u64,
        epoch: u32,
        round: u32,
        pages: u64,
        leased: u64,
    ) -> Vec<(u64, AccessKind)> {
        let mut rng = Rng::seed_from(
            self.seed
                ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (u64::from(epoch) << 32)
                ^ u64::from(round),
        );
        let hot = (pages / 3).max(4).min(pages);
        let mut plan: Vec<(u64, AccessKind)> = (0..hot).map(|p| (p, AccessKind::Read)).collect();
        let cold_span = pages - hot;
        let cold_len = cold_span.saturating_sub(leased * 2);
        for i in 0..cold_len {
            let p = hot + (i * 7 + rng.below(3)) % cold_span.max(1);
            plan.push((p, AccessKind::Write));
        }
        plan
    }
}

/// Runs the sharded engine with the built-in workload.
pub fn run(cfg: &ShardEngineConfig, shards: u32) -> ShardRunReport {
    run_with(cfg, shards, &DefaultTenantWorkload { seed: cfg.seed })
}

/// Runs the sharded engine: one worker thread per (non-empty) shard,
/// bulk-synchronous epochs, deterministic cross-shard merge. The report
/// is byte-identical for every `shards` value.
///
/// # Panics
///
/// Panics on a configuration [`try_run_with`] rejects, or (with shard
/// context) if a worker dies outside per-lane containment; use
/// [`try_run_with`] to handle either as an error.
pub fn run_with(
    cfg: &ShardEngineConfig,
    shards: u32,
    workload: &dyn TenantWorkload,
) -> ShardRunReport {
    match try_run_with(cfg, shards, workload) {
        Ok(report) => report,
        Err(e) => panic!("sharded run failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn tiny() -> ShardEngineConfig {
        ShardEngineConfig {
            lanes: 4,
            frames_per_lane: 16,
            pages_per_lane: 24,
            epochs: 2,
            rounds_per_epoch: 1,
            spill_frames: 8,
            seed: 7,
            chaos: None,
            churn: false,
            economy: None,
        }
    }

    #[test]
    fn engine_report_is_shard_count_invariant() {
        let cfg = tiny();
        let serial = run(&cfg, 1);
        for shards in [2u32, 3, 4, 8] {
            assert_eq!(
                serial,
                run(&cfg, shards),
                "--shards {shards} diverged from --shards 1"
            );
        }
    }

    #[test]
    fn engine_conserves_frames_and_ledger() {
        let report = run(&tiny(), 3);
        assert!(report.conserved, "spill ledger lost a frame");
        assert!(
            report.ledger_residual.abs() < 1e-6,
            "market residual {}",
            report.ledger_residual
        );
        assert_eq!(report.lanes.len(), 4);
        assert!(report.lanes.iter().all(|l| l.faults > 0));
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn quick_config_exercises_the_economy() {
        let report = run(&ShardEngineConfig::quick(), 4);
        // The overcommitted quick config must actually lease spill
        // frames at some point, or the cross-shard path went dead.
        assert!(
            report.trace.iter().any(|line| line.contains("lease +")),
            "no cross-shard lease ever happened:\n{}",
            report.trace.join("\n")
        );
        assert!(report.epochs.iter().any(|e| e.contended));
    }

    fn chaotic_tiny() -> ShardEngineConfig {
        ShardEngineConfig {
            epochs: 3,
            chaos: Some(ChaosPlan::new(0xC0FF_EE00).with_rate(1.0)),
            churn: true,
            ..tiny()
        }
    }

    #[test]
    fn churn_windows_are_deterministic_and_in_range() {
        let cfg = ShardEngineConfig {
            churn: true,
            ..ShardEngineConfig::quick()
        };
        for lane in 0..u64::from(cfg.lanes) {
            let (arrive, depart) = cfg.churn_window(lane);
            assert_eq!((arrive, depart), cfg.churn_window(lane));
            assert!(arrive < depart, "lane {lane}: empty window");
            assert!(depart <= cfg.epochs);
            assert!(arrive <= cfg.epochs / 3);
        }
        let plain = ShardEngineConfig::quick();
        assert_eq!(plain.churn_window(3), (0, plain.epochs));
    }

    #[test]
    fn chaos_run_is_shard_count_invariant() {
        let cfg = chaotic_tiny();
        let serial = run(&cfg, 1);
        for shards in [2u32, 3, 4, 8] {
            assert_eq!(
                serial,
                run(&cfg, shards),
                "--shards {shards} diverged from --shards 1 under chaos"
            );
        }
    }

    #[test]
    fn chaos_run_conserves_and_reports_incidents() {
        let report = run(&chaotic_tiny(), 2);
        assert!(report.conserved, "spill ledger lost a frame under chaos");
        assert!(
            report.ledger_residual.abs() < 1e-6,
            "market residual {}",
            report.ledger_residual
        );
        // Every epoch of every live lane injects at rate 1.0, so the
        // merged trace must carry incident lines.
        assert!(
            report.trace.iter().any(|l| l.contains("chaos injected")),
            "no chaos incident ever traced:\n{}",
            report.trace.join("\n")
        );
        // Churn over 3 epochs with third=1 must retire at least one lane.
        assert!(
            report.departures > 0,
            "churn never departed a lane:\n{}",
            report.trace.join("\n")
        );
        assert_eq!(report.lanes.len(), 4);
        assert_eq!(
            report.crashes,
            report
                .lanes
                .iter()
                .filter(|l| l.fate == LaneFate::Crashed)
                .count() as u64
        );
    }

    #[test]
    fn worker_panic_surfaces_as_structured_error() {
        struct PanickyWorkload;
        impl TenantWorkload for PanickyWorkload {
            fn round(&self, lane: u64, _: u32, _: u32, _: u64, _: u64) -> Vec<(u64, AccessKind)> {
                panic!("synthetic workload failure in lane {lane}");
            }
        }
        let err = try_run_with(&tiny(), 2, &PanickyWorkload)
            .expect_err("a panicking workload must not produce a report");
        let ShardEngineError::WorkerPanicked { message, .. } = err else {
            panic!("expected a worker panic, got {err}");
        };
        assert!(
            message.contains("synthetic workload failure"),
            "panic context lost: {message}"
        );
    }

    #[test]
    fn workload_shrinks_cold_scan_under_lease() {
        let w = DefaultTenantWorkload { seed: 1 };
        let unleased = w.round(0, 0, 0, 48, 0).len();
        let leased = w.round(0, 0, 0, 48, 6).len();
        assert!(leased < unleased, "lease must absorb cold pages");
        // Determinism: same arguments, same plan.
        assert_eq!(w.round(3, 1, 0, 48, 2), w.round(3, 1, 0, 48, 2));
    }

    /// A tiered economy over [`tiny`]: steep rents against thin incomes,
    /// so lane-local ledgers go red and the enforcement ladder runs.
    fn eco_tiny() -> ShardEngineConfig {
        let mut cfg = tiny();
        cfg.churn = true;
        cfg.epochs = 3;
        cfg.economy = Some(EconomyParams {
            incomes: (0..cfg.lanes).map(|l| 2.0 + f64::from(l)).collect(),
            stake_secs: 30.0,
            market: MarketConfig {
                charge_per_mb_sec: 4_000.0,
                io_charge_per_block: 0.05,
                free_when_uncontended: false,
                ..MarketConfig::default()
            },
            schedule: PriceSchedule::new([4_000.0, 1_000.0, 400.0])
                .with_gain(0.002)
                .with_target_util_milli(700),
            tiers: Some(TierLayout::new(8, 6, 2)),
            horizon: Micros::from_millis(1),
            promotion_budget: 0,
            promotion_threshold: 2,
        });
        cfg
    }

    #[test]
    fn zero_lanes_is_a_config_error() {
        let cfg = ShardEngineConfig { lanes: 0, ..tiny() };
        let workload = DefaultTenantWorkload { seed: cfg.seed };
        assert_eq!(
            try_run_with(&cfg, 2, &workload),
            Err(ShardEngineError::NoLanes)
        );
    }

    #[test]
    fn economy_incomes_must_match_the_lanes() {
        let mut cfg = eco_tiny();
        if let Some(eco) = &mut cfg.economy {
            eco.incomes.pop();
        }
        let workload = DefaultTenantWorkload { seed: cfg.seed };
        assert_eq!(
            try_run_with(&cfg, 2, &workload),
            Err(ShardEngineError::IncomesMismatch {
                lanes: 4,
                incomes: 3
            })
        );
    }

    #[test]
    fn economy_tiers_must_cover_a_lane() {
        let mut cfg = eco_tiny();
        if let Some(eco) = &mut cfg.economy {
            eco.tiers = Some(TierLayout::new(8, 6, 4));
        }
        let workload = DefaultTenantWorkload { seed: cfg.seed };
        assert_eq!(
            try_run_with(&cfg, 2, &workload),
            Err(ShardEngineError::TierLayoutMismatch {
                layout: 18,
                frames_per_lane: 16
            })
        );
    }

    #[test]
    fn economy_report_is_shard_count_invariant() {
        let cfg = eco_tiny();
        let serial = run(&cfg, 1);
        for shards in [2u32, 3, 4] {
            assert_eq!(
                serial,
                run(&cfg, shards),
                "economy --shards {shards} diverged from --shards 1"
            );
        }
    }

    #[test]
    fn economy_run_observes_prices_and_conserves() {
        let cfg = eco_tiny();
        let report = run(&cfg, 2);
        let eco = report.economy.as_ref().expect("economy ledger");
        assert_eq!(eco.rents.len(), cfg.epochs as usize);
        assert_eq!(eco.util_milli.len(), cfg.epochs as usize);
        assert!(!eco.samples.is_empty());
        // The residual bound is asserted inside the run; re-check the
        // surfaced values agree.
        assert!(eco.residual.abs() < eco.residual_bound);
        assert!(report.conserved, "spill ledger lost a frame");
        // Steep rents against thin incomes must trip local enforcement
        // somewhere: demotions down the ladder or revocation demands.
        let demotions: u64 = report.lanes.iter().map(|l| l.demotions).sum();
        let revocations: u64 = report.lanes.iter().map(|l| l.revocations).sum();
        assert!(
            demotions + revocations > 0,
            "no lane ever hit the enforcement ladder (demotions={demotions}, revocations={revocations})"
        );
    }

    #[test]
    fn neutral_economy_equals_plain_run_except_ledger() {
        // A flat schedule at the static market's rate, the static
        // market's incomes, no tiers, no stake: the economy must add
        // observation only — every report field except `economy` equals
        // the plain run's, bit for bit.
        let plain = tiny();
        let mut neutral = tiny();
        neutral.economy = Some(EconomyParams {
            incomes: (0..neutral.lanes)
                .map(|l| 20.0 + 3.0 * f64::from(l))
                .collect(),
            stake_secs: 0.0,
            market: MarketConfig {
                charge_per_mb_sec: 200.0,
                io_charge_per_block: 0.05,
                ..MarketConfig::default()
            },
            schedule: PriceSchedule::flat([200.0, 50.0, 20.0]),
            tiers: None,
            horizon: Micros::from_millis(1),
            promotion_budget: 0,
            promotion_threshold: 2,
        });
        for shards in [1u32, 3] {
            let a = run(&plain, shards);
            let mut b = run(&neutral, shards);
            let eco = b.economy.take().expect("economy ledger");
            assert!(eco.rents.iter().all(|r| *r == [200.0, 50.0, 20.0]));
            assert_eq!(a, b, "neutral economy diverged from the plain run");
        }
    }
}
