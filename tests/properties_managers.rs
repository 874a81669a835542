//! Property-based tests of the manager-layer invariants: market ledger
//! conservation and bankruptcy enforcement, SPCM grant accounting,
//! clock-policy correctness, and whole-machine frame conservation under
//! random workloads driven through the default manager.

use epcm::core::{AccessKind, ManagerId, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::market::dram_frames;
use epcm::managers::{AllocationPolicy, Machine, ManagerMode, MarketConfig, MemoryMarket};
use epcm::sim::clock::{Micros, Timestamp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 5a: dram conservation — balances equal income minus
    /// charges minus tax regardless of the billing schedule.
    #[test]
    fn market_ledger_conserves(
        steps in proptest::collection::vec((1u64..5_000_000, 0u64..4096, any::<bool>()), 1..40),
        incomes in proptest::collection::vec(0.0f64..50.0, 1..5),
    ) {
        let mut market = MemoryMarket::new(MarketConfig::default());
        for (i, &income) in incomes.iter().enumerate() {
            market.open_account(ManagerId(i as u32), Some(income));
        }
        let mut t = 0u64;
        for (dt, frames, contended) in steps {
            t += dt;
            let holdings: Vec<_> = incomes
                .iter()
                .enumerate()
                .map(|(i, _)| (ManagerId(i as u32), dram_frames(frames / (i as u64 + 1))))
                .collect();
            market.bill(Timestamp::from_micros(t), &holdings, contended, None);
            market.charge_io(ManagerId(0), frames % 7);
        }
        prop_assert!(market.ledger_residual().abs() < 1e-6,
            "ledger residual {}", market.ledger_residual());
    }

    /// Invariant 5b: a manager holding more than its income can pay goes
    /// bankrupt within one billing period once the market is contended.
    #[test]
    fn bankruptcy_is_prompt(income in 0.1f64..5.0, frames in 3000u64..20000) {
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: income,
            free_when_uncontended: false,
            ..MarketConfig::default()
        });
        market.open_account(ManagerId(1), None);
        // frames >= 3000 at D=1 dram/MB-s costs >= ~11.7 drams/s > income.
        let bankrupt = market.bill(
            Timestamp::from_micros(10_000_000),
            &[(ManagerId(1), dram_frames(frames))],
            true,
            None,
        );
        prop_assert_eq!(bankrupt, vec![ManagerId(1)]);
    }

    /// SPCM accounting: granted_to always equals frames actually moved
    /// out of the boot pool for that manager.
    #[test]
    fn spcm_grant_accounting(requests in proptest::collection::vec(1u64..40, 1..12)) {
        use epcm::managers::{PhysConstraint, SystemPageCacheManager};
        let mut kernel = epcm::core::Kernel::new(256);
        let mut spcm = SystemPageCacheManager::new(AllocationPolicy::FirstCome, 16);
        let free = kernel
            .create_segment(SegmentKind::FramePool, epcm::core::UserId::SYSTEM, ManagerId(1), 256)
            .expect("free segment");
        let mut expected = 0u64;
        for ask in requests {
            let g = spcm
                .request_frames(&mut kernel, ManagerId(1), free, ask, PhysConstraint::Any)
                .expect("request");
            expected += g.granted();
            prop_assert_eq!(spcm.granted_to(ManagerId(1)), expected);
            prop_assert_eq!(kernel.resident_pages(free).expect("resident"), expected);
            prop_assert_eq!(
                kernel.resident_pages(SegmentId::FRAME_POOL).expect("boot"),
                256 - expected
            );
        }
        // Return everything; the pool must be whole again.
        let pages: Vec<epcm::core::PageNumber> = kernel
            .segment(free).expect("segment").resident().map(|(p, _)| p).collect();
        spcm.return_frames(&mut kernel, ManagerId(1), free, &pages).expect("return");
        prop_assert_eq!(spcm.granted_to(ManagerId(1)), 0);
        prop_assert_eq!(kernel.resident_pages(SegmentId::FRAME_POOL).expect("boot"), 256);
    }

    /// Whole-machine conservation and data integrity under a random
    /// mixed workload with eviction pressure: every byte written is
    /// either still readable or was faithfully restored from swap.
    #[test]
    fn machine_survives_random_workload_with_pressure(
        accesses in proptest::collection::vec((0u64..48, any::<u8>(), any::<bool>()), 1..150),
    ) {
        // 40 frames total: forced reclamation throughout.
        let mut m = Machine::new(40);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                target_free: 4,
                low_water: 1,
                refill_batch: 4,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 48).expect("segment");
        let mut model: std::collections::BTreeMap<u64, u8> = Default::default();
        for (page, byte, write) in accesses {
            if write {
                m.store_bytes(seg, page * BASE_PAGE_SIZE, &[byte]).expect("store");
                model.insert(page, byte);
            } else {
                let mut buf = [0u8; 1];
                m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
                if let Some(&expected) = model.get(&page) {
                    prop_assert_eq!(buf[0], expected,
                        "page {} lost its data under eviction", page);
                }
            }
        }
        // Conservation: all 40 frames accounted across all segments.
        let kernel = m.kernel();
        let total: u64 = kernel
            .segment_ids()
            .map(|s| kernel.resident_pages(s).expect("resident"))
            .sum();
        prop_assert_eq!(total, 40);
    }

    /// Writeback equivalence: the asynchronous laundry pipeline at
    /// window 1 is observationally a billing schedule, not a policy
    /// change — any random overcommitted workload conserves frames and
    /// bills exactly the same total disk time as the synchronous path.
    #[test]
    fn async_writeback_bills_like_sync_on_random_workloads(
        accesses in proptest::collection::vec((0u64..48, any::<u8>(), any::<bool>()), 1..150),
    ) {
        let run = |async_writeback: bool| {
            let mut m = Machine::new(40);
            let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
                ManagerMode::Server,
                DefaultManagerConfig {
                    target_free: 4,
                    low_water: 1,
                    refill_batch: 4,
                    async_writeback,
                    writeback_window: 1,
                    writeback_servers: 1,
                    ..DefaultManagerConfig::default()
                },
            )));
            m.set_default_manager(id);
            let seg = m.create_segment(SegmentKind::Anonymous, 48).expect("segment");
            for &(page, byte, write) in &accesses {
                if write {
                    m.store_bytes(seg, page * BASE_PAGE_SIZE, &[byte]).expect("store");
                } else {
                    let mut buf = [0u8; 1];
                    m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
                }
            }
            let (stats, in_flight) = m
                .with_manager(id, |mgr, env| {
                    let d = mgr
                        .as_any_mut()
                        .downcast_mut::<DefaultSegmentManager>()
                        .expect("default manager");
                    d.flush_writebacks(env);
                    Ok((d.writeback_stats(), d.writebacks_in_flight()))
                })
                .expect("flush");
            let kernel = m.kernel();
            let resident: u64 = kernel
                .segment_ids()
                .map(|s| kernel.resident_pages(s).expect("resident"))
                .sum();
            (stats, in_flight, resident)
        };
        let (sync, _, sync_frames) = run(false);
        let (asy, asy_in_flight, asy_frames) = run(true);
        prop_assert_eq!(sync_frames, 40, "sync run lost frames");
        prop_assert_eq!(asy_frames, 40, "async run lost frames");
        prop_assert_eq!(asy_in_flight, 0, "pipeline not drained by flush");
        prop_assert_eq!(sync.billed_us, asy.billed_us,
            "total billed I/O diverged at window 1");
        prop_assert_eq!(sync.completed, asy.completed,
            "writeback counts diverged");
        prop_assert_eq!(asy.dirty_victim_us, 0,
            "async fault path charged writeback time inline");
    }

    /// Batched-ABI equivalence: coalescing the default manager's batch
    /// sites onto one doorbell is a transport change, not a policy
    /// change — any random overcommitted workload
    /// produces identical resident sets, frame assignments and fault
    /// counts, preserves every written byte, and bills less by exactly
    /// the amortized per-call entry charge (`kernel_call × (ring_ops -
    /// ring_batches)`).
    #[test]
    fn batched_abi_matches_unbatched_on_random_workloads(
        accesses in proptest::collection::vec((0u64..48, any::<u8>(), any::<bool>()), 1..150),
    ) {
        let run = |batched_abi: bool| {
            let mut m = Machine::new(40);
            let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
                ManagerMode::Server,
                DefaultManagerConfig {
                    target_free: 4,
                    low_water: 1,
                    refill_batch: 4,
                    sample_batch: 8,
                    batched_abi,
                    ..DefaultManagerConfig::default()
                },
            )));
            m.set_default_manager(id);
            let seg = m.create_segment(SegmentKind::Anonymous, 48).expect("segment");
            for (i, &(page, byte, write)) in accesses.iter().enumerate() {
                if write {
                    m.store_bytes(seg, page * BASE_PAGE_SIZE, &[byte]).expect("store");
                } else {
                    let mut buf = [0u8; 1];
                    m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
                }
                if i % 16 == 15 {
                    // Sampling sweeps and protection-restore faults are
                    // the multi-op batch sites.
                    m.kernel_mut().charge(Micros::from_secs(1));
                    m.tick().expect("tick");
                }
            }
            // Flatten the whole machine's page tables for comparison.
            let kernel = m.kernel();
            let mut tables = Vec::new();
            let segs: Vec<SegmentId> = kernel.segment_ids().collect();
            for s in segs {
                for (p, e) in kernel.segment(s).expect("segment").resident() {
                    tables.push((s.as_u32(), p.as_u64(), e.frame.index(), e.flags.bits()));
                }
            }
            (tables, m.kernel_stats(), m.now())
        };
        let (sync_tables, sync_stats, sync_now) = run(false);
        let (ring_tables, ring_stats, ring_now) = run(true);
        prop_assert_eq!(sync_tables, ring_tables, "page tables diverged");
        prop_assert_eq!(sync_stats.faults_missing, ring_stats.faults_missing);
        prop_assert_eq!(sync_stats.faults_protection, ring_stats.faults_protection);
        prop_assert_eq!(sync_stats.migrate_calls, ring_stats.migrate_calls);
        prop_assert_eq!(sync_stats.modify_calls, ring_stats.modify_calls);
        prop_assert_eq!(sync_stats.pages_migrated, ring_stats.pages_migrated);
        prop_assert_eq!(
            sync_stats.ring_batches, sync_stats.ring_ops,
            "every direct batch holds one op"
        );
        let call = epcm::sim::cost::CostModel::decstation_5000_200().kernel_call;
        prop_assert_eq!(
            sync_now.duration_since(ring_now),
            call * (ring_stats.ring_ops - ring_stats.ring_batches),
            "billing may differ only by the amortized entry charges"
        );
    }

    /// Invariant 6: the clock policy never evicts a page referenced since
    /// the last sweep while an unreferenced candidate exists.
    #[test]
    fn clock_respects_reference_bits(hot in proptest::collection::btree_set(0u64..32, 1..10)) {
        use epcm::managers::policy::{ClockPolicy, Probe, ReplacementPolicy};
        let mut clock = ClockPolicy::new();
        let seg = SegmentId::FRAME_POOL;
        for p in 0..32u64 {
            clock.note_resident(seg, p.into());
        }
        let mut referenced = hot.clone();
        let cold = 32 - hot.len();
        // The first `cold` victims must all be non-hot pages.
        for _ in 0..cold {
            let victim = clock
                .select_victim(&mut |_, p| {
                    if referenced.contains(&p.as_u64()) {
                        referenced.remove(&p.as_u64()); // probe clears the bit
                        Probe::Referenced
                    } else {
                        Probe::NotReferenced
                    }
                })
                .expect("victims remain");
            prop_assert!(!hot.contains(&victim.1.as_u64()),
                "evicted hot page {} while cold pages remained", victim.1);
        }
    }
}

/// Forced reclamation through the market: a bankrupt manager's holdings
/// shrink at the next tick.
#[test]
fn forced_reclamation_shrinks_bankrupt_holdings() {
    let mut market = MemoryMarket::new(MarketConfig {
        income_per_sec: 1.0,
        charge_per_mb_sec: 100.0,
        free_when_uncontended: false,
        ..MarketConfig::default()
    });
    market.open_account(ManagerId(1), None);
    let mut m = Machine::builder(256)
        .allocation(AllocationPolicy::Market {
            market,
            horizon: Micros::new(1),
        })
        .build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::server()));
    m.set_default_manager(id);
    let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
    // Accrue a little income (and run a billing period so the balance is
    // posted) so the initial request is admitted.
    m.kernel_mut().charge(Micros::from_secs(30));
    m.tick().unwrap();
    for p in 0..64 {
        m.touch(seg, p, AccessKind::Write).unwrap();
    }
    let held_before = m.spcm().granted_to(id);
    assert!(held_before >= 64);
    // A long contended period bankrupts the account...
    m.kernel_mut().charge(Micros::from_secs(60));
    m.tick().unwrap();
    // ...and the machine forced roughly half the holdings back.
    let held_after = m.spcm().granted_to(id);
    assert!(
        held_after <= held_before / 2 + 1,
        "holdings {held_before} -> {held_after}"
    );
}

// ----- fault-injection + revocation robustness ------------------------------

/// A non-compliant manager for the revocation property: hoards frames one
/// batch at a time and refuses every reclaim.
#[derive(Debug)]
struct HoarderManager {
    id: ManagerId,
    free_seg: Option<epcm::core::SegmentId>,
}

impl epcm::managers::SegmentManager for HoarderManager {
    fn id(&self) -> ManagerId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn set_id(&mut self, id: ManagerId) {
        self.id = id;
    }
    fn mode(&self) -> epcm::managers::ManagerMode {
        epcm::managers::ManagerMode::FaultingProcess
    }

    fn handle_fault(
        &mut self,
        env: &mut epcm::managers::Env<'_>,
        fault: &epcm::core::FaultEvent,
    ) -> Result<(), epcm::managers::ManagerError> {
        use epcm::managers::{Grant, ManagerError, PhysConstraint};
        let free = match self.free_seg {
            Some(s) => s,
            None => {
                let frames = env.kernel.frames().len() as u64;
                let s = env.kernel.create_segment(
                    SegmentKind::FramePool,
                    epcm::core::UserId::SYSTEM,
                    self.id,
                    frames,
                )?;
                self.free_seg = Some(s);
                s
            }
        };
        if env.kernel.resident_pages(free)? == 0 {
            match env
                .spcm
                .request_frames(env.kernel, self.id, free, 8, PhysConstraint::Any)?
            {
                Grant::Granted(_) => {}
                _ => return Err(ManagerError::OutOfFrames { manager: self.id }),
            }
        }
        let slot = env
            .kernel
            .segment(free)?
            .resident()
            .map(|(p, _)| p)
            .next()
            .ok_or(ManagerError::OutOfFrames { manager: self.id })?;
        env.kernel.migrate_pages(
            free,
            fault.segment,
            slot,
            fault.page,
            1,
            epcm::core::PageFlags::RW,
            epcm::core::PageFlags::empty(),
        )?;
        Ok(())
    }

    fn reclaim(
        &mut self,
        _env: &mut epcm::managers::Env<'_>,
        _count: u64,
    ) -> Result<u64, epcm::managers::ManagerError> {
        Ok(0)
    }

    fn segment_closed(
        &mut self,
        _env: &mut epcm::managers::Env<'_>,
        _segment: epcm::core::SegmentId,
    ) -> Result<(), epcm::managers::ManagerError> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Robustness invariant: under any seeded fault plan and any
    /// interleaving of faults, billing ticks and revocations against a
    /// manager that refuses to cooperate, every physical frame stays
    /// mapped exactly once (none lost, none double-granted) and the
    /// grant ledger never exceeds the machine.
    #[test]
    fn frames_conserved_under_faults_and_revocation(
        seed in any::<u64>(),
        rate in 0.0f64..0.25,
        ops in proptest::collection::vec((0u8..5, 0u64..64), 1..50),
    ) {
        use epcm::sim::disk::FaultPlan;
        const FRAMES: u64 = 64;
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: 1000.0,
            ..MarketConfig::default()
        });
        market.open_account(ManagerId(1), Some(0.01));
        market.open_account(ManagerId(2), Some(1000.0));
        let mut m = Machine::builder(FRAMES as usize)
            .allocation(AllocationPolicy::Market {
                market,
                horizon: Micros::new(1),
            })
            .build();
        let hoarder = m.register_manager(Box::new(HoarderManager {
            id: ManagerId(0),
            free_seg: None,
        }));
        let default = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                target_free: 6,
                low_water: 2,
                refill_batch: 6,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(default);
        m.kernel_mut().charge(Micros::from_secs(10));
        m.tick().expect("first bill");
        m.store_mut().set_fault_plan(FaultPlan::hostile(seed, rate));
        let hoard = m
            .create_segment_with(SegmentKind::Anonymous, FRAMES, hoarder, epcm::core::UserId(1))
            .expect("hoard segment");
        let work = m
            .create_segment(SegmentKind::Anonymous, FRAMES)
            .expect("work segment");
        for &(op, x) in &ops {
            // Individual operations may fail (hostile store, refused
            // grants, bankrupt accounts) — the invariants may not.
            match op {
                0 => { let _ = m.touch(hoard, x % FRAMES, AccessKind::Write); }
                1 => { let _ = m.touch(hoard, x % FRAMES, AccessKind::Read); }
                2 => { let _ = m.touch(work, x % FRAMES, AccessKind::Write); }
                3 => {
                    m.kernel_mut().charge(Micros::from_secs(50));
                    let _ = m.tick();
                }
                _ => { let _ = m.revoke(hoarder, x % 24); }
            }
            // Every frame mapped exactly once across all segments.
            let kernel = m.kernel();
            let mut seen = std::collections::BTreeSet::new();
            let segs: Vec<SegmentId> = kernel.segment_ids().collect();
            for s in segs {
                for (_, e) in kernel.segment(s).expect("live segment").resident() {
                    prop_assert!(
                        seen.insert(e.frame.index()),
                        "frame {} mapped twice after op {:?}",
                        e.frame.index(),
                        (op, x)
                    );
                }
            }
            prop_assert_eq!(seen.len() as u64, FRAMES, "frames lost after op {:?}", (op, x));
            // The grant ledger never promises more than the machine has.
            let granted: u64 = m.spcm().holdings().iter().map(|&(_, n)| n).sum();
            prop_assert!(granted <= FRAMES, "over-granted: {granted}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// §2.4 affordability queries: the wait reported by
    /// `time_until_affordable` is zero exactly when `can_afford` says
    /// yes, and asking for more frames never shortens the wait.
    #[test]
    fn affordability_wait_is_monotone_and_consistent(
        income in 0.5f64..80.0,
        start_balance in 0.0f64..500.0,
        frames in 1u64..512,
        extra in 1u64..512,
        duration_us in 1_000u64..10_000_000,
    ) {
        let mut market = MemoryMarket::new(MarketConfig {
            charge_per_mb_sec: 300.0,
            ..MarketConfig::default()
        });
        let mgr = ManagerId(1);
        market.open_account(mgr, Some(income));
        market.credit(mgr, start_balance);
        let duration = Micros::new(duration_us);
        let wait = market
            .time_until_affordable(mgr, frames, duration)
            .expect("funded account always gets a wait");
        prop_assert_eq!(
            wait == Micros::ZERO,
            market.can_afford(mgr, frames, duration),
            "wait {:?} disagrees with can_afford", wait
        );
        let wait_more = market
            .time_until_affordable(mgr, frames + extra, duration)
            .expect("funded account always gets a wait");
        prop_assert!(
            wait_more >= wait,
            "asking for {} more frames shortened the wait: {:?} < {:?}",
            extra, wait_more, wait
        );
        // An account that never existed has no wait at all.
        prop_assert!(market.time_until_affordable(ManagerId(99), frames, duration).is_none());
    }

    /// Tier degeneracy: pricing an all-DRAM holding through the tiered
    /// quote is bit-identical to the flat quote, with or without a
    /// posted rent schedule.
    #[test]
    fn tiered_quote_degenerates_to_flat_quote(
        frames in 0u64..4096,
        duration_us in 1u64..50_000_000,
        rent in 1.0f64..5_000.0,
        set_rents in any::<bool>(),
    ) {
        let mut market = MemoryMarket::new(MarketConfig {
            charge_per_mb_sec: rent,
            ..MarketConfig::default()
        });
        if set_rents {
            // A posted schedule whose DRAM rate matches the flat rate.
            market.set_tier_rents([rent, rent / 4.0, rent / 10.0]);
        }
        let duration = Micros::new(duration_us);
        let all_dram = [frames, 0, 0];
        prop_assert_eq!(
            market.quote_tiered(&all_dram, duration),
            market.quote(frames, duration),
            "all-DRAM tiered quote diverged from the flat quote"
        );
    }
}

/// The replacement policies as they were before their per-page
/// bookkeeping went dense: a `BTreeMap` multiset of queued keys and a
/// `BTreeSet` of dead ones. The oracle for `policies_match_btree_reference`.
mod reference {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use epcm::core::{PageNumber, SegmentId};
    use epcm::managers::policy::{Probe, ReplacementPolicy};
    use epcm::sim::rng::Rng;

    type Key = (SegmentId, PageNumber);

    #[derive(Debug, Default)]
    struct RingIndex {
        counts: BTreeMap<Key, usize>,
    }

    impl RingIndex {
        fn contains(&self, key: &Key) -> bool {
            self.counts.contains_key(key)
        }

        fn added(&mut self, key: Key) {
            *self.counts.entry(key).or_insert(0) += 1;
        }

        fn dropped(&mut self, key: &Key) {
            if let Some(n) = self.counts.get_mut(key) {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(key);
                }
            }
        }
    }

    /// Clock when `clock` is set, else FIFO or (with `lru`) LRU: the
    /// three lazy-deletion queues differ only in these switches.
    #[derive(Debug, Default)]
    pub struct Queue {
        clock: bool,
        lru: bool,
        ring: VecDeque<Key>,
        dead: BTreeSet<Key>,
        index: RingIndex,
    }

    impl Queue {
        pub fn clock() -> Self {
            Queue {
                clock: true,
                ..Queue::default()
            }
        }

        pub fn fifo() -> Self {
            Queue::default()
        }

        pub fn lru() -> Self {
            Queue {
                lru: true,
                ..Queue::default()
            }
        }
    }

    impl ReplacementPolicy for Queue {
        fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
            let key = (seg, page);
            let was_dead = self.dead.remove(&key);
            let enqueue = if self.clock {
                !was_dead || !self.index.contains(&key)
            } else {
                !self.index.contains(&key)
            };
            if enqueue {
                self.ring.push_back(key);
                self.index.added(key);
            }
        }

        fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
            if self.index.contains(&(seg, page)) {
                self.dead.insert((seg, page));
            }
        }

        fn note_referenced(&mut self, seg: SegmentId, page: PageNumber) {
            let key = (seg, page);
            if let (true, Some(pos)) = (self.lru, self.ring.iter().position(|&k| k == key)) {
                self.ring.remove(pos);
                self.ring.push_back(key);
            }
        }

        fn select_victim(
            &mut self,
            probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
        ) -> Option<Key> {
            let mut budget = if self.clock { 2 } else { 1 } * self.ring.len();
            while budget > 0 {
                budget -= 1;
                let key = self.ring.pop_front()?;
                if self.dead.remove(&key) {
                    self.index.dropped(&key);
                    continue;
                }
                match (probe(key.0, key.1), self.clock) {
                    (Probe::Pinned, _) | (Probe::Referenced, true) => self.ring.push_back(key),
                    (Probe::Gone, _) => self.index.dropped(&key),
                    (Probe::NotReferenced, _) | (Probe::Referenced, false) => {
                        self.index.dropped(&key);
                        return Some(key);
                    }
                }
            }
            None
        }

        fn len(&self) -> usize {
            self.ring.len() - self.dead.len()
        }
    }

    #[derive(Debug)]
    pub struct Random {
        pages: Vec<Key>,
        index: RingIndex,
        rng: Rng,
    }

    impl Random {
        pub fn new(seed: u64) -> Self {
            Random {
                pages: Vec::new(),
                index: RingIndex::default(),
                rng: Rng::seed_from(seed),
            }
        }
    }

    impl ReplacementPolicy for Random {
        fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
            if !self.index.contains(&(seg, page)) {
                self.pages.push((seg, page));
                self.index.added((seg, page));
            }
        }

        fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
            if self.index.contains(&(seg, page)) {
                self.pages.retain(|&k| k != (seg, page));
                self.index.dropped(&(seg, page));
            }
        }

        fn note_referenced(&mut self, _seg: SegmentId, _page: PageNumber) {}

        fn select_victim(
            &mut self,
            probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
        ) -> Option<Key> {
            let mut attempts = self.pages.len() * 2;
            while !self.pages.is_empty() && attempts > 0 {
                attempts -= 1;
                let idx = self.rng.index(self.pages.len());
                let key = self.pages[idx];
                match probe(key.0, key.1) {
                    Probe::Pinned => {}
                    Probe::Gone => {
                        self.pages.swap_remove(idx);
                        self.index.dropped(&key);
                    }
                    Probe::Referenced | Probe::NotReferenced => {
                        self.pages.swap_remove(idx);
                        self.index.dropped(&key);
                        return Some(key);
                    }
                }
            }
            None
        }

        fn len(&self) -> usize {
            self.pages.len()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every replacement policy picks the same victims, probes the same
    /// pages in the same order and reports the same `len()` as the
    /// `BTreeMap` reference, on random streams of residency changes,
    /// references and victim searches across several segments. Pages
    /// are few, so removed keys are often revived while their dead
    /// entries still sit in the queue.
    #[test]
    fn policies_match_btree_reference(
        ops in proptest::collection::vec((0u8..8, 0usize..3, 0u64..10, any::<u64>()), 1..200),
    ) {
        use epcm::core::kernel::Kernel;
        use epcm::core::{PageNumber, UserId};
        use epcm::managers::policy::{
            ClockPolicy, FifoPolicy, LruPolicy, Probe, RandomPolicy, ReplacementPolicy,
        };

        let mut kernel = Kernel::new(4);
        let segs: Vec<SegmentId> = (0..3)
            .map(|_| {
                kernel
                    .create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), 16)
                    .expect("create segment")
            })
            .collect();
        let pairs: Vec<(Box<dyn ReplacementPolicy>, Box<dyn ReplacementPolicy>)> = vec![
            (Box::new(ClockPolicy::new()), Box::new(reference::Queue::clock())),
            (Box::new(FifoPolicy::new()), Box::new(reference::Queue::fifo())),
            (Box::new(LruPolicy::new()), Box::new(reference::Queue::lru())),
            (Box::new(RandomPolicy::new(7)), Box::new(reference::Random::new(7))),
        ];
        for (mut dense, mut model) in pairs {
            for &(kind, seg, page, seed) in &ops {
                let (seg, page) = (segs[seg], PageNumber(page));
                match kind {
                    0..=2 => {
                        dense.note_resident(seg, page);
                        model.note_resident(seg, page);
                    }
                    3 | 4 => {
                        dense.note_removed(seg, page);
                        model.note_removed(seg, page);
                    }
                    5 => {
                        dense.note_referenced(seg, page);
                        model.note_referenced(seg, page);
                    }
                    _ => {
                        // The probe's answer is a function of the seed, the
                        // probed key and the probe's position in the search.
                        let search = |policy: &mut Box<dyn ReplacementPolicy>| {
                            let mut probed = Vec::new();
                            let victim = policy.select_victim(&mut |s, p| {
                                let mix = seed
                                    ^ (u64::from(s.as_u32()) << 40)
                                    ^ (p.as_u64() << 20)
                                    ^ probed.len() as u64;
                                probed.push((s, p));
                                match mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 {
                                    0 => Probe::Referenced,
                                    1 => Probe::Pinned,
                                    2 => Probe::Gone,
                                    _ => Probe::NotReferenced,
                                }
                            });
                            (victim, probed)
                        };
                        prop_assert_eq!(search(&mut dense), search(&mut model));
                    }
                }
                prop_assert_eq!(dense.len(), model.len(), "{:?}", dense);
            }
        }
    }
}
