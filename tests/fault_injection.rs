//! Fault injection and forced reclamation: the machine survives disk
//! errors (transient and permanent) and misbehaving segment managers.
//!
//! Covers the robustness contract end to end: store errors surface
//! through the machine API without corrupting accounting, transient
//! faults are retried to success, a dead store quarantines dirty pages
//! instead of losing them, and a bankrupt manager that refuses to give
//! frames back is stripped by the SPCM's revocation protocol — politely
//! first, then by force, then by destruction.

use std::error::Error;

use epcm::core::{AccessKind, FaultEvent, ManagerId, PageFlags, SegmentId, SegmentKind, UserId};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use epcm::managers::{
    AllocationPolicy, Grant, Machine, MarketConfig, MemoryMarket, PhysConstraint,
};
use epcm::sim::clock::Micros;
use epcm::sim::disk::{FaultPlan, FaultRule, FileStoreError};

/// Walks an error's source chain looking for an injected store fault.
fn has_injected_io(err: &dyn Error) -> bool {
    let mut cursor: Option<&(dyn Error + 'static)> = err.source();
    while let Some(e) = cursor {
        if let Some(fe) = e.downcast_ref::<FileStoreError>() {
            if matches!(fe, FileStoreError::Io { .. }) {
                return true;
            }
        }
        cursor = e.source();
    }
    false
}

fn total_resident(m: &Machine) -> u64 {
    let kernel = m.kernel();
    kernel
        .segment_ids()
        .map(|s| kernel.resident_pages(s).unwrap())
        .sum()
}

/// Satellite: a permanently failing store surfaces through
/// `Machine::uio_read`/`uio_write` as a store error in the chain, without
/// corrupting the UIO counters or the resident-frame accounting — and
/// service resumes once the fault clears.
#[test]
fn store_error_surfaces_without_corrupting_uio_accounting() {
    let mut m = Machine::with_default_manager(256);
    let content: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
    m.store_mut().create_with("input", content.clone());
    let seg = m.open_file("input").unwrap();
    let file = m.store().find("input").unwrap();

    m.store_mut()
        .set_fault_plan(FaultPlan::new(7).with_rule(FaultRule::permanent().on_file(file)));
    let frames_before = total_resident(&m);
    let stats_before = m.kernel_stats();

    let mut buf = vec![0u8; content.len()];
    let read_err = m.uio_read(seg, 0, &mut buf).unwrap_err();
    assert!(
        has_injected_io(&read_err),
        "no FileStoreError::Io in chain: {read_err}"
    );

    // The fill never completed, so no UIO block was accounted and no
    // frame leaked out of the pools.
    let stats_mid = m.kernel_stats();
    assert_eq!(stats_mid.uio_reads, stats_before.uio_reads);
    assert_eq!(stats_mid.uio_writes, stats_before.uio_writes);
    assert_eq!(total_resident(&m), frames_before);

    // Service resumes when the fault clears; the data is intact.
    m.store_mut().clear_fault_plan();
    m.uio_read(seg, 0, &mut buf).unwrap();
    assert_eq!(buf, content);
    assert!(m.kernel_stats().uio_reads > stats_before.uio_reads);
}

/// Transient faults below the retry limit are absorbed: the manager
/// retries with backoff, the data arrives intact, and the retries are
/// visible in its stats and the event trace.
#[test]
fn transient_faults_are_retried_to_success() {
    let mut m = Machine::with_default_manager(256);
    let tracer = m.enable_event_tracing(8192);
    let content: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
    m.store_mut().create_with("input", content.clone());
    let seg = m.open_file("input").unwrap();

    // 40% transient failures: with 4 retries per op, reads still succeed.
    m.store_mut().set_fault_plan(FaultPlan::hostile(11, 0.4));
    let mut buf = vec![0u8; content.len()];
    for (i, chunk) in buf.chunks_mut(8 * 4096).enumerate() {
        m.uio_read(seg, (i * 8 * 4096) as u64, chunk).unwrap();
    }
    assert_eq!(buf, content);

    let default = m.default_manager().unwrap();
    let mgr = m
        .manager(default)
        .unwrap()
        .as_any()
        .downcast_ref::<DefaultSegmentManager>()
        .unwrap();
    let io = mgr.io_retry_stats();
    assert!(io.retries > 0, "expected retries, stats {io:?}");
    assert_eq!(io.gave_up, 0, "nothing should have given up: {io:?}");
    let counts = tracer.kind_counts();
    assert!(counts.get("fault_injected").copied().unwrap_or(0) > 0);
    assert!(counts.get("io_retry").copied().unwrap_or(0) > 0);
    // Retries are charged to the virtual clock, visible in the metrics.
    let metrics = m.metrics().snapshot();
    assert!(metrics.counter(&format!("manager.{}.io_retries", default.0)) > 0);
}

/// When the store goes permanently dead under dirty pages, eviction
/// quarantines them (pinned, data intact) instead of losing the writes,
/// and the machine keeps servicing other segments.
#[test]
fn dead_store_quarantines_dirty_pages_on_eviction() {
    let mut m = Machine::with_default_manager(48);
    let tracer = m.enable_event_tracing(8192);
    let content = vec![7u8; 40 * 4096];
    m.store_mut().create_with("data", content);
    let seg = m.open_file("data").unwrap();
    let file = m.store().find("data").unwrap();

    // Pull the file in, dirtying the first 16 pages.
    let mut buf = vec![0u8; 40 * 4096];
    for (i, chunk) in buf.chunks_mut(8 * 4096).enumerate() {
        m.uio_read(seg, (i * 8 * 4096) as u64, chunk).unwrap();
    }
    for p in 0..16u64 {
        m.uio_write(seg, p * 4096, &[9u8; 64]).unwrap();
    }

    // The store dies for writes to that file.
    m.store_mut().set_fault_plan(
        FaultPlan::new(3).with_rule(FaultRule::permanent().writes_only().on_file(file)),
    );

    // Reclaim sweeps the cache: dirty pages cannot be written back, so
    // they are quarantined in place; clean ones make room.
    let default = m.default_manager().unwrap();
    let reclaimed = m
        .with_manager(default, |mgr, env| mgr.reclaim(env, 30))
        .unwrap();
    assert!(reclaimed > 0, "clean pages should still be reclaimable");

    let mgr = m
        .manager(default)
        .unwrap()
        .as_any()
        .downcast_ref::<DefaultSegmentManager>()
        .unwrap();
    assert!(
        mgr.quarantined_count() > 0,
        "expected quarantined pages, stats {:?}",
        mgr.io_retry_stats()
    );
    let counts = tracer.kind_counts();
    assert!(counts.get("manager_quarantined").copied().unwrap_or(0) > 0);
    // Quarantined pages stay resident and pinned — the dirty data is
    // preserved, not dropped.
    let kernel = m.kernel();
    let pinned_dirty = kernel
        .segment(seg)
        .unwrap()
        .resident()
        .filter(|(_, e)| e.flags.contains(PageFlags::PINNED | PageFlags::DIRTY))
        .count();
    assert!(pinned_dirty > 0);
    // The machine keeps serving other segments from the reclaimed room.
    let anon = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
    for p in 0..4u64 {
        m.touch(anon, p, AccessKind::Write).unwrap();
    }
}

/// A manager that grabs frames one batch at a time and never gives any
/// back: `reclaim` always refuses. Pages it maps stay exactly where the
/// fault put them.
#[derive(Debug)]
struct GreedyManager {
    id: ManagerId,
    free_seg: Option<SegmentId>,
}

impl GreedyManager {
    fn new() -> Self {
        GreedyManager {
            id: ManagerId(0),
            free_seg: None,
        }
    }

    fn free_seg(&mut self, env: &mut Env<'_>) -> Result<SegmentId, ManagerError> {
        if let Some(s) = self.free_seg {
            return Ok(s);
        }
        let frames = env.kernel.frames().len() as u64;
        let seg =
            env.kernel
                .create_segment(SegmentKind::FramePool, UserId::SYSTEM, self.id, frames)?;
        self.free_seg = Some(seg);
        Ok(seg)
    }
}

impl SegmentManager for GreedyManager {
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
    fn mode(&self) -> ManagerMode {
        ManagerMode::FaultingProcess
    }

    fn handle_fault(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        let free = self.free_seg(env)?;
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
            PageFlags::RW,
            PageFlags::empty(),
        )?;
        Ok(())
    }

    fn reclaim(&mut self, _env: &mut Env<'_>, _count: u64) -> Result<u64, ManagerError> {
        Ok(0) // never gives anything back
    }

    fn segment_closed(
        &mut self,
        _env: &mut Env<'_>,
        _segment: SegmentId,
    ) -> Result<(), ManagerError> {
        Ok(())
    }
}

/// Closing a segment releases its quarantine: the pinned frames return
/// to the free pool unpinned, and the manager forgets the closed
/// segment's quarantined pages. Otherwise every frame quarantined under
/// a dead store stays `PINNED` through reuse and can never be evicted.
#[test]
fn segment_close_releases_quarantined_frames() {
    let mut m = Machine::with_default_manager(48);
    let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
    for p in 0..64u64 {
        m.touch(seg, p, AccessKind::Write).unwrap();
    }
    m.store_mut()
        .set_fault_plan(FaultPlan::new(5).with_rule(FaultRule::permanent().writes_only()));
    let default = m.default_manager().unwrap();
    m.with_manager(default, |mgr, env| mgr.reclaim(env, 30))
        .unwrap();
    let quarantined = |m: &Machine| {
        m.manager(default)
            .unwrap()
            .as_any()
            .downcast_ref::<DefaultSegmentManager>()
            .unwrap()
            .quarantined_count()
    };
    assert!(quarantined(&m) > 0, "the dead store must quarantine pages");

    m.close_segment(seg).unwrap();
    assert_eq!(quarantined(&m), 0, "closed segments keep no quarantine");
    let fresh = m.create_segment(SegmentKind::Anonymous, 40).unwrap();
    for p in 0..40u64 {
        m.touch(fresh, p, AccessKind::Write).unwrap();
    }
    let pinned = m
        .kernel()
        .segment(fresh)
        .unwrap()
        .resident()
        .filter(|(_, e)| e.flags.contains(PageFlags::PINNED))
        .count();
    assert_eq!(pinned, 0, "recycled frames must not stay pinned");
}

/// Builds the revocation scenario and runs it to completion: a bankrupt
/// greedy manager refusing every reclaim is stripped by forced seizure
/// and finally destroyed, while the default manager (under a seeded
/// hostile fault plan) keeps serving. Returns observables for
/// determinism comparison.
fn run_revocation_scenario(seed: u64) -> (Machine, ManagerId, ManagerId, Vec<String>) {
    let mut market = MemoryMarket::new(MarketConfig {
        income_per_sec: 1000.0,
        ..MarketConfig::default()
    });
    market.open_account(ManagerId(1), Some(0.01)); // greedy: pauper
    market.open_account(ManagerId(2), Some(1000.0)); // default: solvent
    let policy = AllocationPolicy::Market {
        market,
        horizon: Micros::new(1),
    };
    let mut m = Machine::builder(64).allocation(policy).build();
    let tracer = m.enable_event_tracing(16384);
    let greedy = m.register_manager(Box::new(GreedyManager::new()));
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
    assert_eq!((greedy, default), (ManagerId(1), ManagerId(2)));

    m.kernel_mut().charge(Micros::from_secs(10));
    m.tick().unwrap(); // first bill deposits income

    // Low-rate transient store faults ride along for the whole run.
    m.store_mut().set_fault_plan(FaultPlan::hostile(seed, 0.1));

    // The greedy manager hoards most of memory: half clean, half dirty.
    let hoard = m
        .create_segment_with(SegmentKind::Anonymous, 64, greedy, UserId(1))
        .unwrap();
    for p in 0..24u64 {
        m.touch(hoard, p, AccessKind::Read).unwrap(); // clean pages
    }
    for p in 24..48u64 {
        m.touch(hoard, p, AccessKind::Write).unwrap(); // dirty pages
    }
    assert!(m.spcm().granted_to(greedy) >= 48);

    // The default manager's application works in what little remains,
    // making the market contended (its requests get trimmed/deferred).
    let work = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
    for p in 0..20u64 {
        m.touch(work, p, AccessKind::Write).unwrap();
    }

    // Billing rounds: bankruptcy -> polite demand (refused) -> deadline
    // passes -> forced seizure -> strikes run out -> destruction.
    let mut destroyed_round = None;
    for round in 0..8 {
        m.kernel_mut().charge(Micros::from_secs(100));
        m.tick().unwrap();
        if m.manager(greedy).is_none() {
            destroyed_round = Some(round);
            break;
        }
    }
    assert!(
        destroyed_round.is_some(),
        "greedy manager was never destroyed"
    );

    let events: Vec<String> = tracer.events().iter().map(|e| format!("{e}")).collect();
    (m, greedy, default, events)
}

/// The acceptance scenario: a bankrupt manager refusing `reclaim` is
/// resolved by SPCM forced seizure — frames return to the free pool,
/// dirty pages are quarantined, the events land in the trace, and the
/// machine keeps serving its other manager.
#[test]
fn bankrupt_refusing_manager_is_seized_and_destroyed() {
    let (mut m, greedy, _default, _events) = run_revocation_scenario(42);

    // The greedy manager is gone and its grant zeroed.
    assert!(m.manager(greedy).is_none());
    assert_eq!(m.spcm().granted_to(greedy), 0);
    let (_, seized, quarantined, destroyed) = m.spcm().revocation_stats();
    assert!(seized > 0, "forced seizure must have taken frames");
    assert!(quarantined > 0, "dirty anonymous pages must be impounded");
    assert_eq!(destroyed, 1);
    assert_eq!(m.quarantined_frames(), quarantined);

    // The events are in the trace.
    let counts = m.event_tracer().unwrap().kind_counts();
    assert!(counts.get("forced_reclaim").copied().unwrap_or(0) > 0);
    assert!(counts.get("manager_quarantined").copied().unwrap_or(0) > 0);
    let metrics = m.metrics().snapshot();
    assert!(metrics.counter("spcm.revoked.seized_frames") > 0);
    assert_eq!(metrics.counter("spcm.revoked.destroyed_managers"), 1);

    // Frame conservation: every frame is still somewhere — boot pool,
    // manager pools, live segments or quarantine.
    assert_eq!(total_resident(&m), 64);

    // The machine keeps serving the surviving manager.
    m.store_mut().clear_fault_plan();
    let after = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
    for p in 0..8u64 {
        m.touch(after, p, AccessKind::Write).unwrap();
    }
}

/// Same seed, same machine: two runs of the whole fault + revocation
/// scenario produce byte-identical event traces and metrics.
#[test]
fn revocation_scenario_is_deterministic() {
    let (m1, _, _, events1) = run_revocation_scenario(42);
    let (m2, _, _, events2) = run_revocation_scenario(42);
    assert_eq!(events1, events2, "event traces diverged");
    assert_eq!(
        format!("{:?}", m1.metrics().snapshot()),
        format!("{:?}", m2.metrics().snapshot())
    );
    assert_eq!(m1.now(), m2.now());
}
