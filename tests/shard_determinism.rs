//! Byte-identity of the sharded multi-tenant engine.
//!
//! The sharded kernel's contract (DESIGN.md §12): `--shards 1` and
//! `--shards N` produce byte-for-byte identical reports, rendered
//! tables, merged traces, and `BENCH_shards.json` documents. Workers
//! only group lanes; every cross-shard effect (spill-frame leases,
//! market billing, trace emission) flows through the coordinator's
//! deterministic merge. These tests pin that contract (for the quick
//! preset down to the raw merged trace, for arbitrary small engines and
//! for the stress preset), the spill-pool frame-conservation invariant
//! behind cross-shard migration, and the market ledger staying balanced
//! under the sharded billing schedule.

use epcm::managers::shard::{self, ShardEngineConfig};
use epcm::managers::SpillPool;
use epcm_bench::shards;
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// One full fingerprint of a run: rendered tables + JSON document +
/// the raw merged trace. If any byte differs across worker counts the
/// assertion message names the shard count that diverged.
fn fingerprint(report: &shard::ShardRunReport) -> String {
    let mut out = shards::render(report);
    out.push_str(&shards::shards_json(report));
    for line in &report.trace {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn quick_run_is_shard_count_invariant() {
    let flat = shards::run_report(SHARD_COUNTS[0]);
    let baseline = fingerprint(&flat);
    for &n in &SHARD_COUNTS[1..] {
        let sharded = shards::run_report(n);
        assert_eq!(
            flat, sharded,
            "--shards {n} report diverged from --shards 1"
        );
        assert_eq!(
            baseline,
            fingerprint(&sharded),
            "--shards {n} bytes diverged from --shards 1"
        );
    }
}

#[test]
fn quick_run_conserves_frames_and_drams() {
    let report = shards::run_report(4);
    assert!(report.conserved, "spill pool lost or duplicated frames");
    assert!(
        report.ledger_residual.abs() < 1e-6,
        "market ledger out of balance: residual {}",
        report.ledger_residual
    );
    // Every lane ran to the final barrier and the economy did real work.
    assert!(report.lanes.iter().all(|l| l.final_time_us > 0));
    assert!(report.lanes.iter().any(|l| l.lease_peak > 0));
    assert!(report.epochs.iter().any(|e| e.contended));
}

#[test]
fn oversubscribed_shard_count_clamps_to_lanes() {
    // More workers than lanes must degrade to one lane per worker, not
    // spin up empty shards or diverge.
    let cfg = ShardEngineConfig {
        lanes: 3,
        frames_per_lane: 16,
        pages_per_lane: 24,
        epochs: 2,
        rounds_per_epoch: 1,
        spill_frames: 8,
        seed: 7,
        chaos: None,
        churn: false,
        economy: None,
    };
    let flat = shards::run_report_with(&cfg, 1);
    let wide = shards::run_report_with(&cfg, 64);
    assert_eq!(flat, wide);
}

/// ~20 release-mode repetitions of the stress configuration, 1 worker
/// vs 4, every repetition byte-compared. Run by the CI `scenarios`
/// job: `cargo test --release --test shard_determinism -- --ignored stress`.
/// Ignored by default: it is deliberately heavy.
#[test]
#[ignore = "heavy; exercised by the CI scenarios job"]
fn stress() {
    let cfg = ShardEngineConfig::stress();
    for rep in 0..20 {
        let mut cfg = cfg.clone();
        cfg.seed = cfg.seed.wrapping_add(rep);
        let flat = shards::run_report_with(&cfg, 1);
        let sharded = shards::run_report_with(&cfg, 4);
        assert_eq!(
            fingerprint(&flat),
            fingerprint(&sharded),
            "stress rep {rep}: --shards 4 diverged from --shards 1"
        );
        assert!(flat.conserved, "stress rep {rep}: frames not conserved");
    }
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
    /// arbitrary small configurations, not just the curated quick and
    /// stress presets.
    #[test]
    fn tiny_engine_runs_are_shard_count_invariant(
        lanes in 1u32..6,
        epochs in 1u32..3,
        spill in 0u64..12,
        seed in any::<u64>(),
        shards_tried in 2u32..7,
    ) {
        let cfg = ShardEngineConfig {
            lanes,
            frames_per_lane: 12,
            pages_per_lane: 18,
            epochs,
            rounds_per_epoch: 1,
            spill_frames: spill,
            seed,
            chaos: None,
            churn: false,
            economy: None,
        };
        let flat = shard::run(&cfg, 1);
        let sharded = shard::run(&cfg, shards_tried);
        prop_assert_eq!(&flat, &sharded);
        prop_assert!(flat.conserved);
        prop_assert!(flat.ledger_residual.abs() < 1e-6);
    }
}
