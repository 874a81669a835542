//! Writeback smoke: drive the asynchronous laundry pipeline under a
//! hostile store and prove the retry/quarantine machinery converges when
//! scheduled completions race with injected I/O errors, then emit the
//! evidence as `WRITEBACK_SMOKE_metrics.json`.
//!
//! The store injects 10% transient failures from a fixed seed, so the
//! run is fully deterministic.

use epcm::core::{SegmentKind, BASE_PAGE_SIZE};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::{Machine, ManagerMode};
use epcm::sim::clock::Micros;
use epcm::sim::disk::FaultPlan;
use epcm::trace::json::JsonObject;

const SEED: u64 = 11;
const FRAMES: usize = 64;
const PAGES: u64 = 96;

/// Probability of a transient injected error per store operation.
const FAULT_RATE: f64 = 0.10;

fn pattern(page: u64, round: u64) -> u8 {
    (page.wrapping_mul(37).wrapping_add(round.wrapping_mul(101)) % 251) as u8
}

#[test]
fn writeback_smoke_converges_under_hostile_store() {
    let mut m = Machine::new(FRAMES);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            target_free: 8,
            low_water: 2,
            refill_batch: 8,
            async_writeback: true,
            writeback_window: 2,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        },
    )));
    m.set_default_manager(id);
    let tracer = m.enable_event_tracing(65536);
    let seg = m.create_segment(SegmentKind::Anonymous, PAGES).unwrap();
    m.store_mut()
        .set_fault_plan(FaultPlan::hostile(SEED, FAULT_RATE));

    // Overcommit 96 dirty pages onto 64 frames across several rounds so
    // eviction writebacks — and their injected failures and retries —
    // keep racing with completions already scheduled in the pipeline.
    let rounds = 3u64;
    for round in 0..rounds {
        for page in 0..PAGES {
            let byte = [pattern(page, round)];
            m.store_bytes(seg, page * BASE_PAGE_SIZE, &byte).unwrap();
        }
        m.kernel_mut().charge(Micros::from_secs(1));
        m.tick().unwrap();
    }

    // Every byte of the final round survives eviction and swap-in.
    for page in 0..PAGES {
        let mut buf = [0u8; 1];
        m.load(seg, page * BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(
            buf[0],
            pattern(page, rounds - 1),
            "page {page} corrupted under {FAULT_RATE:.0e} fault rate"
        );
    }

    // Drain the pipeline; every promised completion must land.
    let (wb, io, in_flight) = m
        .with_manager(id, |mgr, env| {
            let d = mgr
                .as_any_mut()
                .downcast_mut::<DefaultSegmentManager>()
                .unwrap();
            d.flush_writebacks(env);
            Ok((
                d.writeback_stats(),
                d.io_retry_stats(),
                d.writebacks_in_flight(),
            ))
        })
        .unwrap();
    assert_eq!(in_flight, 0, "pipeline failed to drain");
    assert_eq!(
        io.gave_up, 0,
        "manager gave up under transient faults: {io:?}"
    );
    assert!(wb.completed > 0, "no writebacks ran — machine not starved");

    let counts = tracer.kind_counts();
    let issued = counts.get("writeback_issued").copied().unwrap_or(0);
    let completed = counts.get("writeback_completed").copied().unwrap_or(0);
    assert!(issued > 0, "async mode issued nothing through the pipeline");
    assert_eq!(issued, completed, "issued writebacks never completed");
    assert!(
        counts.get("fault_injected").copied().unwrap_or(0) > 0,
        "hostile plan at rate {FAULT_RATE} injected nothing"
    );

    let json = JsonObject::new()
        .string("suite", "writeback_smoke")
        .f64("fault_rate", FAULT_RATE)
        .u64("faults_injected", m.store().fault_count())
        .u64("io_retries", io.retries)
        .u64("io_gave_up", io.gave_up)
        .u64("writebacks_issued", issued)
        .u64("writebacks_completed", completed)
        .u64("writeback_stalls", wb.stalls)
        .u64("billed_io_us", wb.billed_us)
        .finish();
    std::fs::write("WRITEBACK_SMOKE_metrics.json", json).unwrap();
}
