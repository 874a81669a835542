//! Property-based tests of the tiered frame pool: tiered market pricing
//! (total drams charged equals the sum over tiers of `M*D*T*multiplier`),
//! flat/tiered price agreement on the degenerate layout, and frame
//! conservation (DESIGN.md §6 invariant 1) across tier-exchange
//! migrations — no frame is ever counted in two tiers or two slots.

use epcm::core::kernel::Kernel;
use epcm::core::tier::{MemTier, TierLayout};
use epcm::core::{AccessKind, ManagerId, SegmentKind, BASE_PAGE_SIZE};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiered billing charges exactly what `quote_tiered` prices: the
    /// sum over tiers of `M*D*T` scaled by the tier multiplier, for
    /// every manager, at every billing step.
    #[test]
    fn tiered_billing_totals_match_quotes(
        steps in proptest::collection::vec(
            (1u64..5_000_000, 0u64..2048, 0u64..2048, 0u64..2048), 1..30),
    ) {
        let mut market = MemoryMarket::new(MarketConfig {
            free_when_uncontended: false,
            ..MarketConfig::default()
        });
        market.open_account(ManagerId(1), Some(0.0));
        market.open_account(ManagerId(2), Some(0.0));
        let mut t = 0u64;
        let mut expected = 0.0f64;
        for (dt, d, s, z) in steps {
            t += dt;
            let h1 = [d, s, z];
            let h2 = [z, d, s];
            expected += market.quote_tiered(&h1, Micros::new(dt));
            expected += market.quote_tiered(&h2, Micros::new(dt));
            market.bill(
                Timestamp::from_micros(t),
                &[(ManagerId(1), h1), (ManagerId(2), h2)],
                true,
                None,
            );
        }
        let charged = market.total_charged();
        prop_assert!(
            (charged - expected).abs() <= expected.abs() * 1e-9 + 1e-9,
            "charged {charged}, expected {expected}"
        );
    }

    /// The degenerate dram-only holding vector prices identically under
    /// the flat and tiered expressions (DRAM multiplier is 1.0), so a
    /// single-tier machine pays the legacy bill exactly.
    #[test]
    fn dram_only_quote_equals_flat_quote(
        frames in 0u64..100_000,
        dt in 1u64..50_000_000,
    ) {
        let market = MemoryMarket::new(MarketConfig::default());
        let flat = market.quote(frames, Micros::new(dt));
        let tiered = market.quote_tiered(&[frames, 0, 0], Micros::new(dt));
        prop_assert!(
            (flat - tiered).abs() <= flat.abs() * 1e-12,
            "flat {flat} vs tiered {tiered}"
        );
    }

    /// Frame conservation and data integrity hold across a random
    /// workload with eviction pressure on a tiered machine, where the
    /// clock's demotion stage exchanges frames mid-run.
    #[test]
    fn frames_conserved_across_demotions(
        accesses in proptest::collection::vec((0u64..60, any::<u8>(), any::<bool>()), 1..120),
    ) {
        let layout = TierLayout::new(16, 16, 8);
        let mut m = Machine::builder(40).tiers(layout).build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                target_free: 4,
                low_water: 1,
                refill_batch: 4,
                demote_batch: 4,
                ..DefaultManagerConfig::default()
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

/// Deterministic end-to-end demotion check: an overcommitted tiered
/// machine demotes (emitting `MigrateFrame` exchanges), keeps every
/// byte intact, and still satisfies frame conservation afterwards.
#[test]
fn demotion_preserves_data_and_conservation() {
    let layout = TierLayout::new(16, 32, 16);
    let total = layout.total();
    let mut m = Machine::builder(total as usize).tiers(layout).build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::server()));
    m.set_default_manager(id);
    let pages = total + total / 2;
    let seg = m
        .create_segment(SegmentKind::Anonymous, pages)
        .expect("segment");
    for round in 0..3u64 {
        for p in 0..pages {
            let data = [(p as u8) ^ (round as u8); 16];
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &data)
                .expect("store");
        }
        let _ = m.tick();
    }
    for p in 0..pages {
        let mut buf = [0u8; 16];
        m.load(seg, p * BASE_PAGE_SIZE, &mut buf).expect("load");
        assert_eq!(buf, [(p as u8) ^ 2; 16], "page {p} lost its data");
    }
    let k = m.kernel_stats();
    assert!(k.tier_migrations > 0, "the demotion stage never fired");
    let demotions = m
        .manager(id)
        .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
        .map(|mgr| mgr.manager_stats().demotions)
        .expect("default manager");
    assert_eq!(
        k.tier_migrations, demotions,
        "every exchange came from the manager's demotion stage"
    );
    assert_frame_conservation(m.kernel(), total);
}

/// A bankrupt manager on a tiered market machine survives by demoting:
/// its tick-time rebalance shifts cold pages off DRAM, cutting the
/// tiered bill instead of waiting for forced seizure.
#[test]
fn bankrupt_manager_demotes_to_cut_its_bill() {
    let layout = TierLayout::new(32, 48, 16);
    let mut market = MemoryMarket::new(MarketConfig {
        income_per_sec: 0.05,
        charge_per_mb_sec: 8.0,
        free_when_uncontended: false,
        ..MarketConfig::default()
    });
    // Seed a starting balance (accounts open at zero): one second of a
    // fat income rate, then cut the rate to a trickle so holding DRAM
    // burns the balance down.
    market.open_account(ManagerId(1), Some(10.0));
    market.bill(Timestamp::from_micros(1_000_000), &[], true, None);
    market.open_account(ManagerId(1), Some(0.05));
    let mut m = Machine::builder(96)
        .tiers(layout)
        .allocation(AllocationPolicy::Market {
            market,
            horizon: Micros::from_secs(2),
        })
        .build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::server()));
    m.set_default_manager(id);
    let seg = m
        .create_segment(SegmentKind::Anonymous, 96)
        .expect("segment");
    for p in 0..80u64 {
        m.touch(seg, p, AccessKind::Write).expect("grow");
    }
    // Let the bill accrue past the income and tick through billing +
    // manager rebalance a few times.
    for _ in 0..4 {
        m.kernel_mut().charge(Micros::from_secs(5));
        let _ = m.tick();
    }
    let stats = m
        .manager(id)
        .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
        .map(|mgr| mgr.manager_stats())
        .expect("default manager");
    assert!(
        stats.demotions > 0,
        "a bankrupt manager should rebalance cold pages off DRAM"
    );
    // The survivors: DRAM holdings shrank below the DRAM tier size even
    // though the manager still holds most of the machine.
    let dram_range = layout.range(MemTier::Dram);
    let mut dram_held = 0u64;
    for sid in m.kernel().segment_ids().collect::<Vec<_>>() {
        if sid == epcm::core::SegmentId::FRAME_POOL {
            continue;
        }
        let segment = m.kernel().segment(sid).expect("segment");
        if segment.manager() != id {
            continue;
        }
        for (_, e) in segment.resident() {
            if dram_range.contains(&(e.frame.index() as u64)) {
                dram_held += 1;
            }
        }
    }
    assert!(
        dram_held < layout.count(MemTier::Dram),
        "rebalance should leave DRAM slack ({dram_held} frames still held)"
    );
    assert_frame_conservation(m.kernel(), 96);
}
