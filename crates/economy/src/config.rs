//! Scenario configurations for the memory-market economy.

use epcm_core::tier::MemTier;
use epcm_core::tier::TierLayout;
use epcm_managers::shard::{EconomyParams, ShardEngineConfig};
use epcm_managers::{MarketConfig, PriceSchedule};
use epcm_sim::clock::Micros;

use crate::classes::{income_of, IncomeClass};

/// One economy scenario: a sharded engine population plus the market
/// parameters that fund and price it. Everything here is data — the
/// run itself is [`crate::run`] — and every derived quantity (incomes,
/// engine config) is a pure function of these fields, so a scenario's
/// output bytes are a function of its config alone.
#[derive(Debug, Clone)]
pub struct EconomyConfig {
    /// Scenario name, carried into the report and JSON.
    pub name: &'static str,
    /// Tenant lanes (market-funded tenants).
    pub lanes: u32,
    /// Physical frames owned by each lane.
    pub frames_per_lane: u64,
    /// Pages in each tenant's segment (overcommitted past its frames).
    pub pages_per_lane: u64,
    /// Bulk-synchronous epochs.
    pub epochs: u32,
    /// Workload rounds per epoch.
    pub rounds_per_epoch: u32,
    /// Coordinator spill frames.
    pub spill_frames: u64,
    /// Seed for the population, the workload and the churn windows.
    pub seed: u64,
    /// Open-loop arrival/departure churn.
    pub churn: bool,
    /// Per-lane tier split (total must equal `frames_per_lane`).
    pub tiers: TierLayout,
    /// Median income per class (drams/second), indexed by
    /// [`IncomeClass::index`]. Individual incomes are log-normal around
    /// these (see [`crate::classes::income_of`]).
    pub medians: [f64; IncomeClass::COUNT],
    /// Arrival stake in seconds of the tenant's own income.
    pub stake_secs: f64,
    /// Base per-tier rents (drams per MB-second) the price schedule
    /// starts from.
    pub base_rents: [f64; MemTier::COUNT],
    /// Price-schedule gain per milli-unit of utilization error.
    pub gain_per_milli: f64,
    /// Price-schedule target DRAM utilization (milli-units).
    pub target_util_milli: u64,
    /// Affordability horizon for lane-local market admission.
    pub horizon: Micros,
    /// Drams charged per spill frame exchanged cross-shard.
    pub io_charge_per_block: f64,
    /// Per-tick hot-page promotion budget for each lane's manager
    /// (0 disables promotion entirely, which keeps committed scenario
    /// bytes identical to pre-promotion builds).
    pub promotion_budget: u64,
    /// Heat threshold a page must reach before it is promotion-eligible.
    pub promotion_threshold: u64,
}

impl EconomyConfig {
    /// The quick scenario: ~150 tenants, enough rent pressure that spot
    /// lanes go bankrupt within the run while premium lanes stay
    /// solvent. Used by `reproduce --economy quick`.
    pub fn quick() -> EconomyConfig {
        EconomyConfig {
            name: "quick",
            lanes: 144,
            frames_per_lane: 32,
            pages_per_lane: 48,
            epochs: 3,
            rounds_per_epoch: 2,
            spill_frames: 64,
            seed: 0xec0_0001,
            churn: true,
            tiers: TierLayout::new(16, 12, 4),
            medians: [400.0, 120.0, 35.0],
            stake_secs: 0.25,
            base_rents: [1_600.0, 400.0, 160.0],
            gain_per_milli: 0.0008,
            target_util_milli: 800,
            horizon: Micros::from_millis(1),
            io_charge_per_block: 0.05,
            promotion_budget: 0,
            promotion_threshold: 2,
        }
    }

    /// The stress scenario: several hundred tenants over more epochs
    /// with thinner spot funding, so the price schedule climbs further
    /// and the enforcement ladder (demotion before revocation) carries
    /// real weight. Used by `reproduce --economy stress`, whose economy
    /// section gates the tail latency on it.
    pub fn stress() -> EconomyConfig {
        EconomyConfig {
            name: "stress",
            lanes: 576,
            frames_per_lane: 32,
            pages_per_lane: 56,
            epochs: 5,
            rounds_per_epoch: 2,
            spill_frames: 256,
            seed: 0xec0_5713,
            churn: true,
            tiers: TierLayout::new(16, 12, 4),
            medians: [400.0, 110.0, 25.0],
            stake_secs: 0.25,
            base_rents: [1_600.0, 400.0, 160.0],
            gain_per_milli: 0.0008,
            target_util_milli: 800,
            horizon: Micros::from_millis(1),
            io_charge_per_block: 0.05,
            promotion_budget: 0,
            promotion_threshold: 2,
        }
    }

    /// Parses a `--economy` argument: `quick`, `stress`, or `both`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted spellings.
    pub fn parse(spec: &str) -> Result<Vec<EconomyConfig>, String> {
        match spec {
            "quick" => Ok(vec![EconomyConfig::quick()]),
            "stress" => Ok(vec![EconomyConfig::stress()]),
            "both" => Ok(vec![EconomyConfig::quick(), EconomyConfig::stress()]),
            other => Err(format!(
                "unknown economy scenario {other:?} (expected quick, stress or both)"
            )),
        }
    }

    /// The per-lane income vector of this scenario's population.
    pub fn incomes(&self) -> Vec<f64> {
        (0..u64::from(self.lanes))
            .map(|lane| income_of(self.seed, lane, self.medians).1)
            .collect()
    }

    /// Lowers the scenario onto the sharded engine: the tiered economy
    /// parameters plus the engine workload shape.
    pub fn engine_config(&self) -> ShardEngineConfig {
        ShardEngineConfig {
            lanes: self.lanes,
            frames_per_lane: self.frames_per_lane,
            pages_per_lane: self.pages_per_lane,
            epochs: self.epochs,
            rounds_per_epoch: self.rounds_per_epoch,
            spill_frames: self.spill_frames,
            seed: self.seed,
            chaos: None,
            churn: self.churn,
            economy: Some(EconomyParams {
                incomes: self.incomes(),
                stake_secs: self.stake_secs,
                market: MarketConfig {
                    charge_per_mb_sec: self.base_rents[MemTier::Dram.index()],
                    io_charge_per_block: self.io_charge_per_block,
                    free_when_uncontended: false,
                    ..MarketConfig::default()
                },
                schedule: PriceSchedule::new(self.base_rents)
                    .with_gain(self.gain_per_milli)
                    .with_target_util_milli(self.target_util_milli),
                tiers: Some(self.tiers),
                horizon: self.horizon,
                promotion_budget: self.promotion_budget,
                promotion_threshold: self.promotion_threshold,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        for cfg in [EconomyConfig::quick(), EconomyConfig::stress()] {
            assert_eq!(cfg.tiers.total(), cfg.frames_per_lane);
            assert_eq!(cfg.incomes().len(), cfg.lanes as usize);
            assert!(cfg.incomes().iter().all(|&i| i > 0.0));
            let engine = cfg.engine_config();
            let eco = engine.economy.expect("economy params");
            assert!(eco.tiered());
            assert_eq!(eco.incomes, cfg.incomes());
        }
    }

    #[test]
    fn parse_accepts_the_three_spellings() {
        assert_eq!(EconomyConfig::parse("quick").unwrap().len(), 1);
        assert_eq!(EconomyConfig::parse("stress").unwrap().len(), 1);
        let both = EconomyConfig::parse("both").unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].name, "quick");
        assert_eq!(both[1].name, "stress");
        assert!(EconomyConfig::parse("huge").is_err());
    }

    #[test]
    fn incomes_are_a_pure_function_of_the_seed() {
        let a = EconomyConfig::quick().incomes();
        let b = EconomyConfig::quick().incomes();
        assert_eq!(a, b);
        let mut other = EconomyConfig::quick();
        other.seed ^= 1;
        assert_ne!(a, other.incomes());
    }
}
