//! Property-based and end-to-end tests of the hot-page promotion stage:
//! frame conservation and data integrity while promotions and demotions
//! interleave (the `MigrateFrame` exchange invariant — promotion never
//! allocates), promotion-off byte-identity with the pre-promotion
//! manager, the dram-only no-op, and batched-ABI billing parity.

use epcm::core::kernel::Kernel;
use epcm::core::tier::TierLayout;
use epcm::core::{AccessKind, ManagerId, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::{AllocationPolicy, Machine, ManagerMode, MarketConfig, MemoryMarket};
use epcm::sim::clock::{Micros, Timestamp};
use proptest::prelude::*;

/// Every frame is in exactly one resident slot across every segment
/// (boot pool included), and all of them are accounted for.
fn assert_frame_conservation(kernel: &Kernel, frames: u64) {
    let mut seen = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for seg in kernel.segment_ids().collect::<Vec<_>>() {
        for (page, entry) in kernel.segment(seg).expect("segment").resident() {
            total += 1;
            if let Some(prev) = seen.insert(entry.frame, (seg, page)) {
                panic!(
                    "{:?} counted twice: {:?} and {:?}",
                    entry.frame,
                    prev,
                    (seg, page)
                );
            }
        }
    }
    assert_eq!(total, frames, "frames lost or duplicated");
}

/// A promotion-capable manager config tuned so the test workloads stay
/// resident and every sampling re-reference is individually observed.
fn promo_config(budget: u64) -> DefaultManagerConfig {
    DefaultManagerConfig {
        target_free: 4,
        low_water: 1,
        refill_batch: 4,
        protection_batch: 1,
        sample_batch: 64,
        promotion_budget: budget,
        ..DefaultManagerConfig::default()
    }
}

/// The bench's stranded-hot-set shape: cold pages written first (taking
/// the fast frames), the hot set written last onto the slowest frames,
/// then `rounds` of hot-only re-reference with a tick after each.
fn run_hot_cold(m: &mut Machine, rounds: u64) -> (SegmentId, u64, u64) {
    let total = m.kernel().tiers().total();
    let pages = total - 8;
    let hot = 8u64;
    let seg = m
        .create_segment(SegmentKind::Anonymous, pages)
        .expect("segment");
    for p in (hot..pages).chain(0..hot) {
        m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8 ^ 0x5A])
            .expect("warm store");
    }
    let _ = m.tick();
    for _ in 0..rounds {
        for p in 0..hot {
            m.touch(seg, p, AccessKind::Read).expect("hot read");
        }
        let _ = m.tick();
    }
    (seg, hot, pages)
}

fn manager_snapshot(m: &Machine, id: ManagerId) -> (u64, u64, u64) {
    m.manager(id)
        .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
        .map(|mgr| {
            let s = mgr.manager_stats();
            (s.promotions, s.demotions, mgr.promotion_stats().heat_events)
        })
        .expect("default manager")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame conservation and data integrity hold across a random
    /// workload on a tiered machine whose manager both demotes under
    /// eviction pressure and promotes accumulated heat — the two ladder
    /// directions exchanging frames mid-run, never allocating.
    #[test]
    fn frames_conserved_across_promote_demote_cycles(
        accesses in proptest::collection::vec((0u64..60, any::<u8>(), any::<bool>()), 1..120),
    ) {
        let layout = TierLayout::new(16, 16, 8);
        let mut m = Machine::builder(40).tiers(layout).build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                demote_batch: 4,
                promotion_threshold: 1,
                ..promo_config(4)
            },
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).expect("segment");
        let mut model: std::collections::BTreeMap<u64, u8> = Default::default();
        for (i, (page, byte, write)) in accesses.into_iter().enumerate() {
            if write {
                m.store_bytes(seg, page * BASE_PAGE_SIZE, &[byte]).expect("store");
                model.insert(page, byte);
            } else {
                let mut buf = [0u8; 1];
                m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
                if let Some(&expected) = model.get(&page) {
                    prop_assert_eq!(buf[0], expected, "page {} lost its data", page);
                }
            }
            if i % 8 == 7 {
                let _ = m.tick();
            }
            assert_frame_conservation(m.kernel(), 40);
        }
    }
}

/// Deterministic end-to-end promotion check: the stranded hot set is
/// pulled into DRAM by frame exchange, every byte survives (including
/// the swap victims whose bytes ride the save/restore copy), frames are
/// conserved, and the opt-in metric keys appear.
#[test]
fn promotion_preserves_data_and_conservation() {
    let layout = TierLayout::new(16, 32, 16);
    let total = layout.total();
    let mut m = Machine::builder(total as usize).tiers(layout).build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        promo_config(8),
    )));
    m.set_default_manager(id);
    let (seg, hot, pages) = run_hot_cold(&mut m, 8);

    let (promotions, _, heat) = manager_snapshot(&m, id);
    assert!(promotions > 0, "the promotion stage never fired");
    assert!(heat > 0, "no heat accumulated");
    let k = m.kernel_stats();
    assert!(k.tier_promotions > 0, "no promotion-direction exchange");
    let dram = layout.range(epcm::core::tier::MemTier::Dram);
    let segment = m.kernel().segment(seg).expect("segment");
    let hot_in_dram = (0..hot)
        .filter(|&p| {
            segment
                .entry(epcm::core::PageNumber(p))
                .is_some_and(|e| dram.contains(&(e.frame.index() as u64)))
        })
        .count() as u64;
    assert_eq!(hot_in_dram, hot, "the whole hot set should reach DRAM");
    for p in 0..pages {
        let mut buf = [0u8; 1];
        m.load(seg, p * BASE_PAGE_SIZE, &mut buf).expect("load");
        assert_eq!(buf[0], p as u8 ^ 0x5A, "page {p} lost its data");
    }
    assert_frame_conservation(m.kernel(), total);
    let metrics = m.metrics();
    assert!(metrics.get("tier.promotions") > 0);
    assert!(metrics.get(&format!("manager.{}.promotions.count", id.0)) > 0);
}

/// A promotion-capable manager with the budget at zero behaves exactly
/// like the pre-promotion `server()` manager on the same workload: same
/// virtual clock, same dispatch accounting, same kernel counters, and
/// no promotion metric key leaks into the export — the property backing
/// the committed `BENCH_*.json` byte-identity that
/// `tests/tier_regression.rs` pins against the repository files.
#[test]
fn promotion_off_matches_the_pre_promotion_manager() {
    let layout = TierLayout::new(16, 32, 16);
    let run = |mgr: Box<dyn epcm::managers::SegmentManager>| {
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let id = m.register_manager(mgr);
        m.set_default_manager(id);
        let _ = run_hot_cold(&mut m, 8);
        (
            m.now(),
            m.stats(),
            m.kernel_stats(),
            m.metrics().snapshot().to_json(),
        )
    };
    let baseline = run(Box::new(DefaultSegmentManager::server()));
    let gated = run(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            promotion_budget: 0,
            promotion_threshold: 7, // ignored while the budget is zero
            ..DefaultManagerConfig::default()
        },
    )));
    assert_eq!(baseline.0, gated.0, "virtual clocks diverged");
    assert_eq!(baseline.1, gated.1, "dispatch accounting diverged");
    assert_eq!(baseline.2, gated.2, "kernel counters diverged");
    assert_eq!(baseline.3, gated.3, "metrics exports diverged");
    assert!(
        !baseline.3.contains("promotions"),
        "a promotion key leaked into a promotion-off export"
    );
}

/// On the paper's single-tier machine an enabled promotion stage is a
/// complete no-op: no heat, no exchanges, and the run is byte-identical
/// to the budget-zero machine.
#[test]
fn dram_only_promotion_is_a_noop() {
    let layout = TierLayout::dram_only(64);
    let run = |budget: u64| {
        let mut m = Machine::builder(64).tiers(layout).build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            promo_config(budget),
        )));
        m.set_default_manager(id);
        let _ = run_hot_cold(&mut m, 6);
        let snap = manager_snapshot(&m, id);
        (m.now(), m.kernel_stats(), snap)
    };
    let off = run(0);
    let on = run(8);
    let (promotions, _, heat) = on.2;
    assert_eq!(promotions, 0, "promoted on a dram-only machine");
    assert_eq!(heat, 0, "heat accumulated on a dram-only machine");
    assert_eq!(on.1.tier_promotions, 0);
    assert_eq!(off.0, on.0, "virtual clocks diverged");
    assert_eq!(off.1, on.1, "kernel counters diverged");
}

/// The promotion stage bills identically whether the manager coalesces
/// its batch sites onto one ring doorbell or rings one per op: same
/// promotions, same per-copy I/O blocks on the market ledger. (Total
/// virtual time legitimately differs — coalescing collapses the
/// sampling sweep's multi-op restore batches — so parity is asserted
/// on the promotion activity and its billing, not on the whole clock.)
#[test]
fn batched_abi_promotion_bills_identically_to_direct() {
    let layout = TierLayout::new(16, 32, 16);
    let run = |batched: bool| {
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: 100.0,
            free_when_uncontended: false,
            ..MarketConfig::default()
        });
        // Accounts open at zero: bank one virtual second of a fat income
        // rate so the manager is comfortably solvent for the whole run.
        market.open_account(ManagerId(1), Some(1_000.0));
        market.bill(Timestamp::from_micros(1_000_000), &[], true, None);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .allocation(AllocationPolicy::Market {
                market,
                horizon: Micros::from_secs(2),
            })
            .build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                batched_abi: batched,
                ..promo_config(8)
            },
        )));
        m.set_default_manager(id);
        let _ = run_hot_cold(&mut m, 8);
        let snap = manager_snapshot(&m, id);
        let kernel = m.kernel_stats();
        let io_blocks = m
            .spcm()
            .market()
            .map(MemoryMarket::io_charges)
            .expect("market");
        (snap, kernel.tier_promotions, io_blocks)
    };
    let direct = run(false);
    let ringed = run(true);
    let (promotions, _, _) = direct.0;
    assert!(promotions > 0, "the direct run never promoted");
    assert_eq!(direct.0, ringed.0, "promotion activity diverged");
    assert_eq!(direct.1, ringed.1, "kernel exchange counts diverged");
    assert_eq!(
        direct.2, ringed.2,
        "per-copy I/O billing diverged between ABIs"
    );
    assert_eq!(
        direct.2, promotions,
        "every promotion copy should bill exactly one block"
    );
}
