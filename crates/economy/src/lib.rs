//! # epcm-economy — the multi-tenant memory-market scenario engine
//!
//! The paper's §2.4 economy at population scale: hundreds of
//! market-funded tenants with heterogeneous incomes compete for one
//! tiered machine on the sharded engine, while the coordinator runs
//! **dynamic price discovery** — per-tier rents adjusted each epoch
//! from observed DRAM utilization — and every lane's local ledger
//! drives the enforcement ladder (voluntary demotion before forced
//! revocation). The crate is three pieces:
//!
//! * [`classes`] — income classes (premium/standard/spot) and seeded
//!   log-normal income sampling, pure functions of `(seed, lane)`.
//! * [`config`] — scenario presets ([`EconomyConfig::quick`],
//!   [`EconomyConfig::stress`]) and their lowering onto
//!   `epcm_managers::shard::EconomyParams`.
//! * [`histogram`] / [`report`] — fixed log-spaced virtual-time
//!   histograms and per-class outcome aggregation (p50/p99/p999,
//!   residency by tier, bankruptcy/demotion/revocation counts).
//!
//! Everything is deterministic: the engine report is byte-identical
//! for any `--shards`/`--jobs` split (pinned by `tests/scenarios.rs`
//! for the presets and `tests/shard_determinism.rs` for other seeds), so
//! the aggregated report and the `BENCH_economy.json` bytes are too.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod classes;
pub mod config;
pub mod histogram;
pub mod report;

use epcm_managers::shard;
use epcm_workloads::runner::VppTenantWorkload;

pub use classes::{class_of, income_of, IncomeClass};
pub use config::EconomyConfig;
pub use histogram::LatencyHistogram;
pub use report::{aggregate, ClassOutcome, EconomyReport};

/// Runs one economy scenario end to end: lowers the config onto the
/// sharded engine, runs it under `shards` worker threads with the V++
/// tenant workload, and aggregates the per-class outcomes. The result
/// is byte-identical for every `shards` value.
pub fn run(cfg: &EconomyConfig, shards: u32) -> EconomyReport {
    let engine = cfg.engine_config();
    let report = shard::run_with(&engine, shards, &VppTenantWorkload { seed: engine.seed });
    aggregate(cfg, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down quick scenario for debug-mode unit tests.
    fn small() -> EconomyConfig {
        EconomyConfig {
            lanes: 24,
            epochs: 3,
            spill_frames: 16,
            ..EconomyConfig::quick()
        }
    }

    #[test]
    fn run_aggregates_every_class() {
        let report = run(&small(), 2);
        assert_eq!(report.classes.len(), IncomeClass::COUNT);
        let lanes: u64 = report.classes.iter().map(|c| c.lanes).sum();
        assert_eq!(lanes, 24);
        assert!(report.classes.iter().any(|c| c.samples > 0));
        assert_eq!(report.rents.len(), 3);
        assert!(report.residual.abs() < report.residual_bound);
    }

    #[test]
    fn run_is_shard_count_invariant() {
        let cfg = small();
        let serial = run(&cfg, 1);
        assert_eq!(serial, run(&cfg, 3));
    }

    #[test]
    fn rents_respond_to_utilization() {
        // The small scenario starts heavily overcommitted, so the first
        // observation must raise the DRAM rent above base; late epochs
        // may fall again as churn departures and enforcement free DRAM
        // — that falling edge is the price discovery working, not a
        // bug, so only the initial response and the peak are asserted.
        let report = run(&small(), 2);
        let dram: Vec<f64> = report
            .rents
            .iter()
            .map(|r| r[epcm_core::tier::MemTier::Dram.index()])
            .collect();
        assert!(dram[0] > 1_600.0, "no initial response: {dram:?}");
        assert!(report.peak_dram_rent() > 1_600.0);
        assert!(report.util_milli[0] > 800, "not overcommitted at start");
    }

    #[test]
    fn enforcement_reaches_the_poor() {
        let report = run(&small(), 2);
        let spot = report.class(IncomeClass::Spot);
        let premium = report.class(IncomeClass::Premium);
        // Someone must have hit the ladder under these rents.
        let enforced: u64 = report
            .classes
            .iter()
            .map(|c| c.demotions + c.revocations)
            .sum();
        assert!(enforced > 0, "no enforcement at all");
        // Premium funding buys shorter epochs than spot funding.
        if spot.samples > 0 && premium.samples > 0 {
            assert!(
                premium.p99_us <= spot.p99_us,
                "premium p99 {} above spot p99 {}",
                premium.p99_us,
                spot.p99_us
            );
        }
    }
}
