//! Shard-count invariance and conservation properties of the sharded
//! multi-tenant engine, its spill pool, chaos injection and the
//! memory-market economy, on configurations the `reproduce` registry does
//! not run (`tests/scenarios.rs` checks the registry's own presets at
//! every worker count).
//!
//! The engine's contract (DESIGN.md §12, §13, §15): workers only group
//! lanes, so any shard count produces the same report, and no spill
//! lease, injected failure, departure or market settlement strands a
//! frame or a dram.

use epcm::core::tier::TierLayout;
use epcm::economy::EconomyConfig;
use epcm::managers::shard::{self, EconomyParams, ShardEngineConfig};
use epcm::managers::{MarketConfig, PriceSchedule, SpillPool};
use epcm::sim::chaos::ChaosPlan;
use epcm::sim::clock::Micros;
use epcm_bench::{economy, shards};
use proptest::prelude::*;

/// A small engine with neither chaos, churn nor an economy.
fn plain_engine(lanes: u32, epochs: u32, spill_frames: u64, seed: u64) -> ShardEngineConfig {
    ShardEngineConfig {
        lanes,
        frames_per_lane: 12,
        pages_per_lane: 18,
        epochs,
        rounds_per_epoch: 1,
        spill_frames,
        seed,
        chaos: None,
        churn: false,
        economy: None,
    }
}

/// More workers than lanes degrade to one lane per worker: no empty
/// shard, no divergence.
#[test]
fn oversubscribed_shard_count_clamps_to_lanes() {
    let cfg = ShardEngineConfig {
        frames_per_lane: 16,
        pages_per_lane: 24,
        ..plain_engine(3, 2, 8, 7)
    };
    assert_eq!(
        shards::run_report_with(&cfg, 1),
        shards::run_report_with(&cfg, 64)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame conservation across cross-shard exchanges: under an
    /// arbitrary grant/release schedule the free count and every lane's
    /// lease add up to the pool, each lane's lease matches a model
    /// ledger, grants never exceed the pool, and releasing everything
    /// restores the pool.
    #[test]
    fn spill_pool_conserves_frames(
        total in 1u64..64,
        ops in proptest::collection::vec((any::<bool>(), 0u64..12, 1u64..16), 1..80),
    ) {
        let mut pool = SpillPool::new(total, 12);
        let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &(is_grant, lane, count) in &ops {
            if is_grant {
                let got = pool.grant(lane, count);
                prop_assert!(got <= count);
                *model.entry(lane).or_default() += got;
            } else {
                let returned = pool.release(lane, count);
                let held = model.entry(lane).or_default();
                prop_assert_eq!(returned, count.min(*held));
                *held -= returned;
            }
            prop_assert!(pool.conserved(), "pool lost a frame mid-schedule");
            let leased_total: u64 = model.values().sum();
            prop_assert_eq!(pool.free_frames(), total - leased_total);
            for (&lane, &held) in &model {
                prop_assert_eq!(pool.leased_to(lane), held);
            }
        }
        for &lane in model.keys() {
            pool.release_all(lane);
        }
        prop_assert_eq!(pool.free_frames(), total);
        prop_assert!(pool.conserved());
    }

    /// Grant order is deterministic and exhaustive: asking for the whole
    /// pool from one lane leases every frame, and a second lane then
    /// gets nothing until a release.
    #[test]
    fn spill_pool_grants_are_exhaustive(total in 1u64..64, lane in 0u64..8) {
        let mut pool = SpillPool::new(total, 9);
        prop_assert_eq!(pool.grant(lane, total + 5), total);
        prop_assert_eq!(pool.free_frames(), 0);
        prop_assert_eq!(pool.grant(lane + 1, 1), 0);
        prop_assert_eq!(pool.release(lane, 1), 1.min(total));
        prop_assert_eq!(pool.grant(lane + 1, 1), 1);
        prop_assert!(pool.conserved());
    }

    /// The engine's report is invariant to the worker grouping for
    /// arbitrary small configurations, not just the curated presets.
    #[test]
    fn tiny_engine_runs_are_shard_count_invariant(
        lanes in 1u32..6,
        epochs in 1u32..3,
        spill in 0u64..12,
        seed in any::<u64>(),
        shards_tried in 2u32..7,
    ) {
        let cfg = plain_engine(lanes, epochs, spill, seed);
        let flat = shard::run(&cfg, 1);
        let sharded = shard::run(&cfg, shards_tried);
        prop_assert_eq!(&flat, &sharded);
        prop_assert!(flat.conserved);
        prop_assert!(flat.ledger_residual.abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frame and dram conservation under arbitrary chaos schedules
    /// interleaved with churn, at every rate, on arbitrary small
    /// engines — and shard-count invariance of the whole report.
    #[test]
    fn arbitrary_chaos_schedules_conserve_frames_and_drams(
        chaos_seed in any::<u64>(),
        rate in 0.0f64..1.0,
        lanes in 2u32..6,
        epochs in 1u32..4,
        churn in any::<bool>(),
        shards_tried in 2u32..7,
    ) {
        let cfg = ShardEngineConfig {
            chaos: Some(ChaosPlan::new(chaos_seed).with_rate(rate)),
            churn,
            ..plain_engine(lanes, epochs, 8, chaos_seed ^ 0x5eed)
        };
        let flat = shard::run(&cfg, 1);
        let sharded = shard::run(&cfg, shards_tried);
        prop_assert_eq!(&flat, &sharded);
        // No stranded frames after any injected failure: the spill
        // ledger partition holds and every departed lane's lease is
        // back in the pool (conserved() checks the full partition).
        prop_assert!(flat.conserved, "spill ledger violated under chaos");
        prop_assert!(
            flat.ledger_residual.abs() < 1e-6,
            "ledger residual {} under chaos", flat.ledger_residual
        );
        prop_assert_eq!(flat.lanes.len(), lanes as usize);
    }
}

/// A debug-sized economy with the full market machinery (tiers, churn,
/// price discovery), so every moving part is exercised.
fn economy_scenario(seed: u64) -> EconomyConfig {
    EconomyConfig {
        name: "test",
        lanes: 18,
        frames_per_lane: 16,
        pages_per_lane: 24,
        epochs: 3,
        spill_frames: 16,
        seed,
        tiers: TierLayout::new(8, 6, 2),
        ..EconomyConfig::quick()
    }
}

/// The economy's report, rendered tables and JSON bytes are a pure
/// function of its config, for seeds other than the registry presets'.
#[test]
fn economy_output_is_shard_count_invariant_across_seeds() {
    for seed in [0xec0_aaa1u64, 0xec0_bbb2, 0xec0_ccc3] {
        let cfg = economy_scenario(seed);
        let serial = epcm::economy::run(&cfg, 1);
        let serial = (
            economy::render(std::slice::from_ref(&serial)),
            economy::economy_json(std::slice::from_ref(&serial)),
            serial,
        );
        for workers in [2, 4] {
            let report = epcm::economy::run(&cfg, workers);
            let sharded = (
                economy::render(std::slice::from_ref(&report)),
                economy::economy_json(std::slice::from_ref(&report)),
                report,
            );
            assert_eq!(
                serial, sharded,
                "seed {seed:#x}: --shards {workers} diverged"
            );
        }
    }
}

/// Through arrival, demotion, revocation and departure, no lane holds
/// more frames than it owns, the spill pool stays conserved and the
/// ledger residual stays within its bound.
#[test]
fn frames_are_conserved_across_the_tenant_lifecycle() {
    let cfg = economy_scenario(0xec0_11fe);
    let report = epcm::economy::run(&cfg, 2);
    assert!(report.shard.conserved, "spill-pool frames not conserved");
    assert!(report.departures > 0, "churn produced no departures");
    let ledger = report.shard.economy.as_ref().expect("economy ledger");
    assert!(!ledger.samples.is_empty());
    for s in &ledger.samples {
        let resident: u64 = s.resident_by_tier.iter().sum();
        assert!(
            resident <= cfg.frames_per_lane,
            "lane {} epoch {}: {} frames resident out of {} owned",
            s.lane,
            s.epoch,
            resident,
            cfg.frames_per_lane
        );
    }
    assert!(ledger.residual.abs() < ledger.residual_bound);
}

/// A flat schedule at the static market's rate, the static market's
/// incomes, no tiers, no stake, no churn: the economy is pure
/// observation, and every field but `economy` equals the plain run's.
#[test]
fn neutral_zero_churn_economy_matches_the_plain_sharded_run() {
    let plain = ShardEngineConfig {
        frames_per_lane: 16,
        pages_per_lane: 24,
        ..plain_engine(6, 2, 12, 0xec0_0fff)
    };
    let mut neutral = plain.clone();
    neutral.economy = Some(EconomyParams {
        incomes: (0..plain.lanes)
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
    for workers in [1, 2, 4] {
        let a = shards::run_report_with(&plain, workers);
        let mut b = shards::run_report_with(&neutral, workers);
        let eco = b.economy.take().expect("economy ledger");
        assert!(eco.rents.iter().all(|r| *r == [200.0, 50.0, 20.0]));
        assert_eq!(
            a, b,
            "--shards {workers}: neutral economy diverged from the plain run"
        );
        assert_eq!(shards::render(&a), shards::render(&b));
        assert_eq!(shards::shards_json(&a), shards::shards_json(&b));
    }
}
