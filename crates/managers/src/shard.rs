//! The sharded multi-tenant engine: intra-run concurrency with
//! byte-identical output for any worker count.
//!
//! The paper measured one application faulting against one kernel on
//! one CPU. The ROADMAP's north star — hundreds of managers faulting
//! concurrently against a shared economy — needs the kernel state
//! *partitioned*, not locked. This module runs `lanes` tenants, each a
//! full single-threaded [`Machine`] (kernel + store + SPCM + default
//! manager) owning one positional frame range of the global pool, and
//! groups contiguous lanes onto `shards` worker threads via
//! [`ShardLayout`]. Workers advance their tenants through bulk-
//! synchronous **epochs**; at every epoch barrier the cross-shard
//! effects travel to a single coordinator as explicit messages
//! ([`CrossShardMsg`]), are merged into one global order on the
//! `(time, seq)` tie-break by `ShardedEventQueue`, and are applied
//! there: spill-frame exchanges against the conservation-checked
//! [`SpillPool`] (the cross-shard `MigrateFrame` analogue) and memory-
//! market billing against one global [`MemoryMarket`] — the market is
//! the serialization point, never touched from worker threads.
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
//! Default-manager shard affinity falls out of the construction: each
//! tenant's [`DefaultSegmentManager`] lives inside its lane's machine
//! and is only ever invoked by that lane's worker thread.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use epcm_core::shard::{ShardId, ShardLayout};
use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{AccessKind, ManagerId, SegmentKind, UserId};
use epcm_core::watchdog::WatchdogConfig;
use epcm_sim::chaos::{ChaosEvent, ChaosPlan};
use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::cost::CostModel;
use epcm_sim::events::ShardedEventQueue;
use epcm_sim::rng::Rng;

use crate::chaotic::ChaoticManager;
use crate::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use crate::machine::Machine;
use crate::manager::ManagerMode;
use crate::market::{MarketConfig, MemoryMarket, PriceSchedule};
use crate::spcm::{AllocationPolicy, RevocationConfig};

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
    /// into it and the updated rents are broadcast in the next
    /// [`EpochPlan`].
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

/// A cross-shard effect, produced inside a worker and applied only by
/// the coordinator after the deterministic merge. These are the
/// *explicit message types* the shard seams are made of — worker
/// threads share no mutable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrossShardMsg {
    /// The lane asks to lease `frames` spill frames from the global
    /// pool — the sharded analogue of a cross-shard `MigrateFrame`
    /// exchange (frames physically leave the coordinator's range and
    /// are accounted to the lane until released).
    Lease {
        /// Requesting lane.
        lane: u64,
        /// Frames requested.
        frames: u64,
    },
    /// The lane returns `frames` of its current lease to the pool.
    Release {
        /// Returning lane.
        lane: u64,
        /// Frames offered back.
        frames: u64,
    },
}

/// A lane's liveness at an epoch barrier, as reported to the
/// coordinator. Chaos-free, churn-free runs only ever report
/// [`LaneStatus::Active`], which the coordinator treats exactly as the
/// pre-chaos engine did — no extra trace bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneStatus {
    /// The lane ran its epoch normally (possibly after containing a
    /// chaos event — see [`LaneReport::incidents`]).
    Active,
    /// The lane has not arrived yet, or already departed.
    Idle,
    /// The lane is departing this epoch: the coordinator must reclaim
    /// its spill leases and settle its market account.
    Departing,
    /// The lane died and could not be failed over; the coordinator
    /// reclaims its leases and settles its account.
    Dead {
        /// Human-readable cause, folded into the trace.
        reason: String,
    },
}

/// One lane's epoch-barrier report to the coordinator.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Reporting lane.
    pub lane: u64,
    /// The lane's virtual clock at the barrier.
    pub now: Timestamp,
    /// Frames the lane's SPCM currently has granted (demand signal).
    pub resident: u64,
    /// Faults the lane took this epoch.
    pub faults: u64,
    /// Cross-shard requests, stamped with the lane time they were made.
    pub msgs: Vec<(Timestamp, CrossShardMsg)>,
    /// The lane's liveness this epoch.
    pub status: LaneStatus,
    /// Contained chaos events and churn transitions this epoch, in
    /// occurrence order; empty on every chaos-free run.
    pub incidents: Vec<String>,
    /// Virtual time the lane consumed this epoch (µs). Worker-side
    /// observation; shard-count invariant because a lane's clock is.
    pub epoch_us: u64,
    /// The lane's resident frames per memory tier at the barrier.
    /// Computed only on economy runs; all-zero otherwise.
    pub resident_by_tier: [u64; MemTier::COUNT],
    /// Lane-local ledger balance at the barrier (tiered economy runs;
    /// 0 otherwise).
    pub local_balance: f64,
    /// Whether the lane-local ledger was in the red at the barrier
    /// (tiered economy runs; false otherwise).
    pub bankrupt: bool,
}

/// The coordinator's broadcast after an epoch barrier: the merged,
/// globally agreed state every lane resumes from.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// The epoch this plan closes.
    pub epoch: u32,
    /// Whether the market judged dram contended this epoch.
    pub contended: bool,
    /// Spill frames currently leased to each lane (indexed by lane).
    pub leases: Vec<u64>,
    /// Per-tier rents posted by the coordinator's price schedule for
    /// the next epoch (`None` outside economy runs). Workers install
    /// them on each live lane's local ledger before the next epoch.
    pub rents: Option<[f64; MemTier::COUNT]>,
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
/// reports (pinned by `tests/shard_determinism.rs`).
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
    pub residual: f64,
    /// The documented f64 bound the residual must stay within (see
    /// [`MemoryMarket::residual_bound`]); economy runs assert it.
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
}

impl fmt::Display for ShardEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardEngineError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ShardEngineError {}

/// The spill-frame ledger: the coordinator-owned frame range leased out
/// across shard boundaries. Every frame is either free or leased to
/// exactly one lane; [`SpillPool::conserved`] verifies the partition.
/// Grants hand out the lowest-numbered free frames and releases return
/// a lane's highest-numbered frames first, so the ledger state is a
/// pure function of the (merged, deterministic) request order.
#[derive(Debug, Clone)]
pub struct SpillPool {
    range: Range<u64>,
    free: BTreeSet<u64>,
    leased: BTreeMap<u64, BTreeSet<u64>>,
}

impl SpillPool {
    /// A pool owning the global frame ids in `range`, all free.
    pub fn new(range: Range<u64>) -> SpillPool {
        SpillPool {
            free: range.clone().collect(),
            leased: BTreeMap::new(),
            range,
        }
    }

    /// Total frames the pool is responsible for.
    pub fn total(&self) -> u64 {
        self.range.end - self.range.start
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free.len() as u64
    }

    /// Frames currently leased to `lane`.
    pub fn leased_to(&self, lane: u64) -> u64 {
        self.leased.get(&lane).map_or(0, |s| s.len() as u64)
    }

    /// Leases up to `want` frames to `lane` (lowest free ids first);
    /// returns how many were actually granted.
    pub fn grant(&mut self, lane: u64, want: u64) -> u64 {
        let mut granted = 0;
        for _ in 0..want {
            let Some(&frame) = self.free.iter().next() else {
                break;
            };
            self.free.remove(&frame);
            self.leased.entry(lane).or_default().insert(frame);
            granted += 1;
        }
        granted
    }

    /// Returns up to `count` of `lane`'s frames to the pool (highest
    /// leased ids first); returns how many came back.
    pub fn release(&mut self, lane: u64, count: u64) -> u64 {
        let Some(set) = self.leased.get_mut(&lane) else {
            return 0;
        };
        let mut returned = 0;
        for _ in 0..count {
            let Some(&frame) = set.iter().next_back() else {
                break;
            };
            set.remove(&frame);
            self.free.insert(frame);
            returned += 1;
        }
        if set.is_empty() {
            self.leased.remove(&lane);
        }
        returned
    }

    /// Returns *all* of `lane`'s frames to the pool (bankruptcy seize).
    pub fn release_all(&mut self, lane: u64) -> u64 {
        self.release(lane, self.leased_to(lane))
    }

    /// Frame conservation: every frame of the pool's range is in
    /// exactly one place — the free set or one lane's lease — and no
    /// frame from outside the range ever appears.
    pub fn conserved(&self) -> bool {
        let mut seen = BTreeSet::new();
        for &f in &self.free {
            if !self.range.contains(&f) || !seen.insert(f) {
                return false;
            }
        }
        for set in self.leased.values() {
            for &f in set {
                if !self.range.contains(&f) || !seen.insert(f) {
                    return false;
                }
            }
        }
        seen.len() as u64 == self.total()
    }
}

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

/// One worker's epoch-barrier submission: its lanes' reports, in lane
/// order — or a structured failure with shard context, so an engine
/// bug aborts the run with a [`ShardEngineError`] instead of a bare
/// thread panic.
enum FromWorker {
    Reports {
        shard: ShardId,
        reports: Vec<LaneReport>,
    },
    Failed {
        shard: ShardId,
        message: String,
    },
}

/// One worker's final submission after the last epoch.
enum WorkerDone {
    Results {
        shard: ShardId,
        results: Vec<LaneResult>,
    },
    Failed {
        shard: ShardId,
        message: String,
    },
}

/// A tenant lane owned by a worker: a whole machine plus lane state.
struct Tenant {
    lane: u64,
    machine: Machine,
    seg: epcm_core::types::SegmentId,
    /// The lane's [`ChaoticManager`], when chaos is armed; cleared once
    /// the manager is failed over so later injections are skipped.
    chaos_id: Option<ManagerId>,
    leased: u64,
    lease_peak: u64,
    faults: u64,
    base_faults: u64,
    crashed: bool,
    failovers_seen: u64,
    /// Lane-local market accounts (tiered economy runs): the default
    /// manager's, plus the chaotic manager's when chaos is armed.
    local_accounts: Vec<ManagerId>,
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

fn total_faults(m: &Machine) -> u64 {
    let k = m.kernel_stats();
    k.faults_missing + k.faults_protection + k.faults_cow
}

fn build_tenant(cfg: &ShardEngineConfig, lane: u64) -> Tenant {
    let eco = cfg.economy.as_ref();
    let mut builder = Machine::builder(cfg.frames_per_lane as usize);
    // Tiered economy: the lane machine carries the paper's per-machine
    // SPCM economy — a tier ladder plus a lane-local market ledger
    // enforcing admission (affordability), demotion (manager in the
    // red) and revocation (bankruptcy) locally, at tick granularity.
    if let Some(layout) = eco.and_then(|e| e.tiers) {
        assert_eq!(
            layout.total(),
            cfg.frames_per_lane,
            "economy tier layout must cover exactly the lane's frames"
        );
        builder = builder.tiers(layout).allocation(AllocationPolicy::Market {
            market: MemoryMarket::new(eco.expect("tiers imply economy").market.clone()),
            horizon: eco.expect("tiers imply economy").horizon,
        });
    }
    let mut machine = builder.build();
    let manager = match eco.filter(|e| e.tiered() && e.promotion_budget > 0) {
        Some(e) => DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                promotion_budget: e.promotion_budget,
                promotion_threshold: e.promotion_threshold,
                ..DefaultManagerConfig::default()
            },
        ),
        None => DefaultSegmentManager::server(),
    };
    let id = machine.register_manager(Box::new(manager));
    machine.set_default_manager(id);
    // Under chaos the tenant's segment is owned by a ChaoticManager and
    // the kernel arms the upcall watchdog, with a short revocation
    // grace so byzantine replies escalate within the epoch. The default
    // manager above stays clean: it is the failover heir.
    let chaos_id = if cfg.chaos.is_some() {
        let costs = CostModel::decstation_5000_200();
        machine.enable_watchdog(WatchdogConfig::from_costs(&costs));
        machine.spcm_mut().set_revocation_config(RevocationConfig {
            grace: Micros::from_millis(2),
            ..RevocationConfig::default()
        });
        Some(machine.register_manager(Box::new(ChaoticManager::server(lane))))
    } else {
        None
    };
    // The Market admission policy refuses managers without accounts and
    // defers the broke, so in tiered mode the local accounts must exist
    // — opened at the lane's class income, primed with the posted base
    // rents and the arrival stake — before the first warm-up touch.
    let mut local_accounts = Vec::new();
    if let Some(eco) = eco.filter(|e| e.tiered()) {
        let income = eco.incomes[lane as usize];
        let rents = eco.schedule.prices();
        if let Some(market) = machine.spcm_mut().market_mut() {
            market.set_tier_rents(rents);
            market.open_account(id, Some(income));
            market.credit(id, income * eco.stake_secs);
            local_accounts.push(id);
            if let Some(cid) = chaos_id {
                market.open_account(cid, Some(income));
                market.credit(cid, income * eco.stake_secs);
                local_accounts.push(cid);
            }
        }
    }
    let seg = match chaos_id {
        Some(cid) => machine
            .create_segment_with(
                SegmentKind::Anonymous,
                cfg.pages_per_lane,
                cid,
                UserId::SYSTEM,
            )
            .expect("tenant segment"),
        None => machine
            .create_segment(SegmentKind::Anonymous, cfg.pages_per_lane)
            .expect("tenant segment"),
    };
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

fn lane_result(cfg: &ShardEngineConfig, t: &Tenant, fate: LaneFate) -> LaneResult {
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
        fate,
        failovers: t.failovers_seen,
        demotions,
        promotions,
        revocations,
        seized,
    }
}

/// Renders a caught panic payload (strings only; anything else is
/// summarized).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one tenant through one epoch: inject any scheduled chaos,
/// contain an injected crash (failing the lane over to its default
/// manager), and audit a byzantine epoch with an explicit revocation.
/// Returns the lane's barrier report.
fn run_tenant_epoch(
    cfg: &ShardEngineConfig,
    workload: &dyn TenantWorkload,
    t: &mut Tenant,
    epoch: u32,
    mut incidents: Vec<String>,
) -> LaneReport {
    let t0 = t.machine.now();
    let before = total_faults(&t.machine);
    let mut byzantine = false;
    if let Some(plan) = &cfg.chaos {
        if let Some(event) = plan.roll(t.lane, epoch) {
            if let Some(cid) = t.chaos_id {
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
                    byzantine = matches!(event, ChaosEvent::Byzantine);
                    incidents.push(format!("chaos injected: {event}"));
                }
            }
        }
    }
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
    if let Ok(true) = contained {
        // Bill the stalled remainder of the epoch so the ladder keeps
        // moving: income accrues, and a recovered balance re-admits the
        // lane next epoch.
        let _ = t.machine.tick();
        incidents.push("starved: no frames until balance recovers".to_string());
    }
    if let Err(payload) = contained {
        if cfg.chaos.is_none() {
            // Without injected chaos a panic here is an engine bug;
            // surface it to the worker frame (and try_run's error path)
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
    } else if byzantine {
        if let Some(cid) = t.chaos_id {
            // Audit the lying manager: a polite revocation whose reply
            // the kernel checks against the grant ledger.
            let _ = t.machine.revoke(cid, 1 + t.lane % 2);
            incidents.push("byzantine reclaim audited".to_string());
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
    // Cross-shard policy: under fault pressure ask the coordinator for
    // spill frames; once pressure subsides, return half the lease per
    // epoch.
    let mut msgs = Vec::new();
    if faults > cfg.frames_per_lane / 2 {
        msgs.push((
            now,
            CrossShardMsg::Lease {
                lane: t.lane,
                frames: 1 + t.lane % 3,
            },
        ));
    } else if t.leased > 0 {
        msgs.push((
            now,
            CrossShardMsg::Release {
                lane: t.lane,
                frames: t.leased.div_ceil(2),
            },
        ));
    }
    if byzantine {
        // A byzantine epoch also over-releases: asks the pool for more
        // frames back than the lane holds, pinning the clamped
        // `spill_over_release` path on the coordinator.
        msgs.push((
            now,
            CrossShardMsg::Release {
                lane: t.lane,
                frames: t.leased + 2,
            },
        ));
    }
    let eco = cfg.economy.as_ref();
    let resident_by_tier = match eco {
        Some(_) => t.machine.resident_by_tier(),
        None => [0; MemTier::COUNT],
    };
    let (balance, bankrupt) = if eco.is_some_and(|e| e.tiered()) {
        let b = local_balance(t);
        (b, b < 0.0)
    } else {
        (0.0, false)
    };
    LaneReport {
        lane: t.lane,
        now,
        resident,
        faults,
        msgs,
        status: LaneStatus::Active,
        incidents,
        epoch_us: now.as_micros() - t0.as_micros(),
        resident_by_tier,
        local_balance: balance,
        bankrupt,
    }
}

/// The per-shard worker body: advance each owned lane through one epoch,
/// report at the barrier, apply the coordinator's plan, repeat. Channel
/// failures mean the coordinator is gone (another worker failed); the
/// worker just unwinds its lanes and returns.
fn worker_loop(
    cfg: &ShardEngineConfig,
    layout: ShardLayout,
    shard: ShardId,
    workload: &dyn TenantWorkload,
    plans: &mpsc::Receiver<EpochPlan>,
    reports: &mpsc::Sender<FromWorker>,
    done: &mpsc::Sender<WorkerDone>,
) {
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
        let mut epoch_reports = Vec::with_capacity(slots.len());
        for slot in &mut slots {
            let mut incidents = Vec::new();
            if epoch == slot.arrive && slot.tenant.is_none() && slot.done.is_none() {
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
                    let fate = if t.crashed {
                        LaneFate::Crashed
                    } else {
                        LaneFate::Departed
                    };
                    slot.done = Some(lane_result(cfg, &t, fate));
                    incidents.push("departed".to_string());
                    epoch_reports.push(LaneReport {
                        lane: slot.lane,
                        now: t.machine.now(),
                        resident: 0,
                        faults: 0,
                        msgs: Vec::new(),
                        status: LaneStatus::Departing,
                        incidents,
                        epoch_us: 0,
                        resident_by_tier: [0; MemTier::COUNT],
                        local_balance: 0.0,
                        bankrupt: false,
                    });
                    continue;
                }
            }
            match slot.tenant.as_mut() {
                Some(t) => {
                    epoch_reports.push(run_tenant_epoch(cfg, workload, t, epoch, incidents));
                }
                None => epoch_reports.push(LaneReport {
                    lane: slot.lane,
                    now: Timestamp::ZERO,
                    resident: 0,
                    faults: 0,
                    msgs: Vec::new(),
                    status: LaneStatus::Idle,
                    incidents,
                    epoch_us: 0,
                    resident_by_tier: [0; MemTier::COUNT],
                    local_balance: 0.0,
                    bankrupt: false,
                }),
            }
        }
        if reports
            .send(FromWorker::Reports {
                shard,
                reports: epoch_reports,
            })
            .is_err()
        {
            return;
        }
        let Ok(plan) = plans.recv() else {
            return;
        };
        if plan.rents.is_some() {
            last_rents = plan.rents;
        }
        for slot in &mut slots {
            if let Some(t) = slot.tenant.as_mut() {
                t.leased = plan.leases[t.lane as usize];
                t.lease_peak = t.lease_peak.max(t.leased);
                if let Some(rents) = plan.rents {
                    t.machine.apply_tier_rents(plan.epoch, rents);
                }
            }
        }
    }
    let results = slots
        .iter()
        .map(|slot| match (&slot.tenant, &slot.done) {
            (Some(t), _) => {
                let fate = if t.crashed {
                    LaneFate::Crashed
                } else {
                    LaneFate::Completed
                };
                lane_result(cfg, t, fate)
            }
            (None, Some(r)) => r.clone(),
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
        .collect();
    let _ = done.send(WorkerDone::Results { shard, results });
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

/// Runs the sharded engine with the built-in workload.
pub fn run(cfg: &ShardEngineConfig, shards: u32) -> ShardRunReport {
    run_with(cfg, shards, &DefaultTenantWorkload { seed: cfg.seed })
}

/// Fallible variant of [`run`].
///
/// # Errors
///
/// [`ShardEngineError::WorkerPanicked`] when a worker dies outside
/// per-lane containment.
pub fn try_run(cfg: &ShardEngineConfig, shards: u32) -> Result<ShardRunReport, ShardEngineError> {
    try_run_with(cfg, shards, &DefaultTenantWorkload { seed: cfg.seed })
}

/// Runs the sharded engine: one worker thread per (non-empty) shard,
/// bulk-synchronous epochs, deterministic cross-shard merge. The report
/// is byte-identical for every `shards` value.
///
/// # Panics
///
/// Panics (with shard context) if a worker dies outside per-lane
/// containment; use [`try_run_with`] to handle that as an error.
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

/// The fallible engine entry point: like [`run_with`], but a worker
/// panic outside per-lane containment surfaces as a structured
/// [`ShardEngineError`] carrying the shard and panic message instead of
/// aborting the caller through a bare `join` panic.
///
/// # Errors
///
/// [`ShardEngineError::WorkerPanicked`] when a worker dies.
pub fn try_run_with(
    cfg: &ShardEngineConfig,
    shards: u32,
    workload: &dyn TenantWorkload,
) -> Result<ShardRunReport, ShardEngineError> {
    assert!(cfg.lanes > 0, "the engine needs at least one lane");
    let layout = cfg.layout(shards);
    let shard_count = layout.shards();
    let lanes = cfg.lanes as usize;
    let spill_base = layout.total_frames();
    let mut pool = SpillPool::new(spill_base..spill_base + cfg.spill_frames);
    let eco = cfg.economy.as_ref();
    let tiered = eco.is_some_and(|e| e.tiered());
    // The coordinator ledger: on economy runs accounts open lazily at
    // each lane's arrival epoch (heterogeneous incomes); otherwise the
    // pre-economy static market, byte for byte.
    let mut market = match eco {
        Some(eco) => {
            assert_eq!(
                eco.incomes.len(),
                lanes,
                "economy incomes must cover every lane"
            );
            let mut market = MemoryMarket::new(eco.market.clone());
            market.set_tier_rents(eco.schedule.prices());
            market
        }
        None => shard_market(cfg.lanes),
    };
    let mut schedule = eco.map(|e| e.schedule.clone());
    let mut rents_hist: Vec<[f64; MemTier::COUNT]> = Vec::new();
    let mut util_hist: Vec<u64> = Vec::new();
    let mut samples: Vec<LaneEpochSample> = Vec::new();
    let mut trace: Vec<String> = Vec::new();
    let mut epochs: Vec<EpochSummary> = Vec::new();
    let mut results: Vec<Option<LaneResult>> = vec![None; lanes];
    let mut leases = vec![0u64; lanes];
    let mut departures = 0u64;
    let mut spill_over_releases = 0u64;

    thread::scope(|scope| -> Result<(), ShardEngineError> {
        let (report_tx, report_rx) = mpsc::channel::<FromWorker>();
        let (done_tx, done_rx) = mpsc::channel::<WorkerDone>();
        let mut plan_txs = Vec::with_capacity(shard_count as usize);
        for s in 0..shard_count {
            let (plan_tx, plan_rx) = mpsc::channel::<EpochPlan>();
            plan_txs.push(plan_tx);
            let report_tx = report_tx.clone();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                // Contain the whole worker: anything that escapes the
                // per-lane containment is reported as a structured
                // failure with shard context, never a bare join abort.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(
                        cfg,
                        layout,
                        ShardId(s),
                        workload,
                        &plan_rx,
                        &report_tx,
                        &done_tx,
                    );
                }));
                if let Err(payload) = caught {
                    let message = panic_message(payload.as_ref());
                    let _ = report_tx.send(FromWorker::Failed {
                        shard: ShardId(s),
                        message: message.clone(),
                    });
                    let _ = done_tx.send(WorkerDone::Failed {
                        shard: ShardId(s),
                        message,
                    });
                }
            });
        }
        drop(report_tx);
        drop(done_tx);

        for epoch in 0..cfg.epochs {
            // Barrier: wait for every shard, index by shard id (arrival
            // order is scheduling noise and must not matter).
            let mut per_shard: Vec<Option<Vec<LaneReport>>> = vec![None; shard_count as usize];
            for _ in 0..shard_count {
                match report_rx.recv() {
                    Ok(FromWorker::Reports { shard, reports }) => {
                        per_shard[shard.index()] = Some(reports);
                    }
                    Ok(FromWorker::Failed { shard, message }) => {
                        return Err(ShardEngineError::WorkerPanicked {
                            shard: shard.0,
                            message,
                        });
                    }
                    Err(_) => {
                        return Err(ShardEngineError::WorkerPanicked {
                            shard: u32::MAX,
                            message: "a worker exited without reporting".to_string(),
                        });
                    }
                }
            }
            // Shards hold contiguous ascending lane runs, so shard-order
            // concatenation is lane-ascending — the grouping-invariant
            // insertion order the (time, seq) merge depends on.
            let reports: Vec<LaneReport> = per_shard
                .into_iter()
                .map(|r| r.expect("every shard reported"))
                .reduce(|mut acc, mut next| {
                    acc.append(&mut next);
                    acc
                })
                .unwrap_or_default();
            debug_assert!(reports.iter().enumerate().all(|(i, r)| r.lane == i as u64));

            // Economy: lanes join the coordinator ledger at their
            // arrival epoch — the account must exist (income set, stake
            // credited) before this epoch's I/O charges and billing land
            // on it. Lane-ascending, so the open/credit order is
            // grouping-invariant.
            if let Some(eco) = eco {
                for r in &reports {
                    if cfg.churn_window(r.lane).0 == epoch {
                        let mgr = ManagerId(r.lane as u32);
                        let income = eco.incomes[r.lane as usize];
                        market.open_account(mgr, Some(income));
                        market.credit(mgr, income * eco.stake_secs);
                    }
                }
            }

            // Merge the cross-shard messages into one global order.
            let mut queue = ShardedEventQueue::new(shard_count as usize);
            for r in &reports {
                for (time, msg) in &r.msgs {
                    queue.schedule(layout.shard_of_lane(r.lane).index(), *time, msg.clone());
                }
            }
            while let Some((_, time, msg)) = queue.next_merged() {
                match msg {
                    CrossShardMsg::Lease { lane, frames } => {
                        let granted = pool.grant(lane, frames);
                        leases[lane as usize] += granted;
                        // Each exchanged frame pays the market's I/O
                        // charge: the serialization point bills in
                        // merged order.
                        market.charge_io(ManagerId(lane as u32), granted);
                        trace.push(format!(
                            "[{:>8}us] lane {:>2} lease +{granted}/{frames} pool={}",
                            time.as_micros(),
                            lane,
                            pool.free_frames()
                        ));
                    }
                    CrossShardMsg::Release { lane, frames } => {
                        let returned = pool.release(lane, frames);
                        leases[lane as usize] -= returned;
                        trace.push(format!(
                            "[{:>8}us] lane {:>2} release -{returned} pool={}",
                            time.as_micros(),
                            lane,
                            pool.free_frames()
                        ));
                        if returned < frames {
                            // The pool clamped an over-release: the lane
                            // offered back frames it never held. Count
                            // and trace it; conservation is untouched.
                            spill_over_releases += 1;
                            trace.push(format!(
                                "[{:>8}us] lane {:>2} spill_over_release want={frames} held={returned}",
                                time.as_micros(),
                                lane
                            ));
                        }
                    }
                }
            }

            // Lane incidents and liveness transitions, in lane order.
            // Chaos-free, churn-free runs report only Active statuses
            // with empty incident lists, so this adds no trace bytes.
            for r in &reports {
                for incident in &r.incidents {
                    trace.push(format!(
                        "[{:>8}us] lane {:>2} {incident}",
                        r.now.as_micros(),
                        r.lane
                    ));
                }
                match &r.status {
                    LaneStatus::Active | LaneStatus::Idle => {}
                    LaneStatus::Departing | LaneStatus::Dead { .. } => {
                        let seized = pool.release_all(r.lane);
                        leases[r.lane as usize] = 0;
                        let settled = market
                            .settle_account(ManagerId(r.lane as u32))
                            .unwrap_or(0.0);
                        departures += 1;
                        let cause = match &r.status {
                            LaneStatus::Dead { reason } => format!("dead ({reason})"),
                            _ => "departed".to_string(),
                        };
                        trace.push(format!(
                            "[{:>8}us] lane {:>2} {cause}: leases -{seized} settled {settled:.2} drams",
                            r.now.as_micros(),
                            r.lane
                        ));
                    }
                }
            }

            // Global billing at the barrier: one market, lane order.
            let barrier = reports
                .iter()
                .map(|r| r.now)
                .max()
                .expect("at least one lane");
            let demand: u64 = reports.iter().map(|r| r.resident + r.faults).sum();
            let capacity = layout.total_frames();
            let contended = demand > capacity;
            let holdings: Vec<(ManagerId, u64)> = reports
                .iter()
                .map(|r| {
                    (
                        ManagerId(r.lane as u32),
                        r.resident + leases[r.lane as usize],
                    )
                })
                .collect();
            let bankrupt = if tiered {
                // Tiered billing: each lane's barrier holdings priced
                // per tier at the posted rents; spill leases are DRAM.
                let by_tier: Vec<(ManagerId, [u64; MemTier::COUNT])> = reports
                    .iter()
                    .map(|r| {
                        let mut frames = r.resident_by_tier;
                        frames[MemTier::Dram.index()] += leases[r.lane as usize];
                        (ManagerId(r.lane as u32), frames)
                    })
                    .collect();
                market.bill_tiered_traced(barrier, &by_tier, contended, None)
            } else {
                market.bill(barrier, &holdings, contended)
            };
            for mgr in &bankrupt {
                let lane = u64::from(mgr.0);
                let seized = pool.release_all(lane);
                if seized > 0 {
                    leases[lane as usize] = 0;
                    trace.push(format!(
                        "[{:>8}us] lane {:>2} bankrupt: seized {seized} spill frames",
                        barrier.as_micros(),
                        lane
                    ));
                }
            }
            let leased_total: u64 = leases.iter().sum();
            trace.push(format!(
                "[{:>8}us] epoch {epoch}: demand={demand}/{capacity} contended={contended} \
                 leased={leased_total} pool={}",
                barrier.as_micros(),
                pool.free_frames()
            ));
            epochs.push(EpochSummary {
                epoch,
                demand,
                capacity,
                contended,
                pool_free: pool.free_frames(),
                leased: leased_total,
            });

            // Price discovery: fold the epoch's integer DRAM utilization
            // into the schedule, post the updated rents on the
            // coordinator ledger and broadcast them in the plan. Pure
            // integer → f64 pipeline, so the trajectory is a function of
            // (seed, epoch, utilization) alone — never of the grouping.
            let mut plan_rents = None;
            if let Some(sched) = schedule.as_mut() {
                let util_milli = demand.saturating_mul(1000) / capacity.max(1);
                let new_rents = sched.observe(util_milli);
                market.set_tier_rents(new_rents);
                // Deliberately no trace line: the economy writes only to
                // `report.economy`, so a neutral economy run (flat
                // schedule, matching incomes) equals a plain run on
                // every other field — pinned by tests.
                rents_hist.push(new_rents);
                util_hist.push(util_milli);
                for r in &reports {
                    if r.status == LaneStatus::Active {
                        let balance = if tiered {
                            r.local_balance
                        } else {
                            market.balance(ManagerId(r.lane as u32)).unwrap_or(0.0)
                        };
                        samples.push(LaneEpochSample {
                            epoch,
                            lane: r.lane,
                            epoch_us: r.epoch_us,
                            resident_by_tier: r.resident_by_tier,
                            balance,
                            bankrupt: if tiered { r.bankrupt } else { balance < 0.0 },
                        });
                    }
                }
                plan_rents = Some(new_rents);
            }

            let plan = EpochPlan {
                epoch,
                contended,
                leases: leases.clone(),
                rents: plan_rents,
            };
            for plan_tx in &plan_txs {
                // A send to a failed worker's closed channel is fine:
                // its Failed report surfaces on the next barrier.
                let _ = plan_tx.send(plan.clone());
            }
        }

        let mut finished = vec![false; shard_count as usize];
        for _ in 0..shard_count {
            match done_rx.recv() {
                Ok(WorkerDone::Results {
                    shard,
                    results: lane_results,
                }) => {
                    assert!(
                        !std::mem::replace(&mut finished[shard.index()], true),
                        "{shard} finished twice"
                    );
                    for r in lane_results {
                        let lane = r.lane as usize;
                        results[lane] = Some(r);
                    }
                }
                Ok(WorkerDone::Failed { shard, message }) => {
                    return Err(ShardEngineError::WorkerPanicked {
                        shard: shard.0,
                        message,
                    });
                }
                Err(_) => {
                    return Err(ShardEngineError::WorkerPanicked {
                        shard: u32::MAX,
                        message: "a worker exited without finishing".to_string(),
                    });
                }
            }
        }
        Ok(())
    })?;

    let lanes: Vec<LaneResult> = results
        .into_iter()
        .map(|r| {
            let mut r = r.expect("every lane produced a result");
            // Tiered economy: the worker already filled the lane-local
            // ledger balance; the coordinator ledger is reported through
            // the EconomyLedger totals instead.
            if !tiered {
                r.balance = market
                    .balance(ManagerId(r.lane as u32))
                    .expect("every lane has an account");
            }
            r
        })
        .collect();
    let failovers = lanes.iter().map(|l| l.failovers).sum();
    let crashes = lanes.iter().filter(|l| l.fate == LaneFate::Crashed).count() as u64;
    let economy = eco.map(|_| {
        let residual = market.ledger_residual();
        let residual_bound = market.residual_bound();
        assert!(
            residual.abs() < residual_bound,
            "economy coordinator ledger residual {residual} exceeded its bound {residual_bound}"
        );
        EconomyLedger {
            rents: rents_hist,
            util_milli: util_hist,
            samples,
            total_income: market.total_income(),
            total_charged: market.total_charged(),
            residual,
            residual_bound,
        }
    });
    Ok(ShardRunReport {
        lanes,
        epochs,
        trace,
        pool_free: pool.free_frames(),
        conserved: pool.conserved(),
        ledger_residual: market.ledger_residual(),
        failovers,
        crashes,
        departures,
        spill_over_releases,
        economy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShardEngineConfig {
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
    fn pool_grants_lowest_and_conserves() {
        let mut pool = SpillPool::new(100..110);
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
        assert_eq!(pool.release(9, 1), 0);
        assert!(pool.conserved());
    }

    #[test]
    fn pool_release_all_seizes_everything() {
        let mut pool = SpillPool::new(0..6);
        pool.grant(1, 3);
        pool.grant(2, 2);
        assert_eq!(pool.release_all(1), 3);
        assert_eq!(pool.leased_to(1), 0);
        assert_eq!(pool.free_frames(), 4);
        assert!(pool.conserved());
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
        let ShardEngineError::WorkerPanicked { message, .. } = err;
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
