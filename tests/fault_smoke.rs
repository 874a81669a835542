//! Fault smoke: drive a real file workload under a hostile store and
//! prove the machine absorbs the faults, then emit the evidence as
//! artifacts (`FAULT_SMOKE_trace.txt`, `FAULT_SMOKE_metrics.json`).
//!
//! The store injects 10% transient failures from a fixed seed, so the
//! run is fully deterministic.

use epcm::managers::default_manager::DefaultSegmentManager;
use epcm::managers::Machine;
use epcm::sim::clock::Micros;
use epcm::sim::disk::FaultPlan;
use epcm::trace::json::JsonObject;

const SEED: u64 = 7;
const PAGE: usize = 4096;

/// Probability of a transient injected error per store operation.
const FAULT_RATE: f64 = 0.10;

/// One pass over a cached file with periodic dirtying and billing ticks,
/// entirely under the fault plan. Returns the bytes read back.
fn run_workload(m: &mut Machine) -> Vec<u8> {
    let content: Vec<u8> = (0..200_000u32)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    m.store_mut().create_with("smoke", content.clone());
    let seg = m.open_file("smoke").unwrap();
    m.store_mut()
        .set_fault_plan(FaultPlan::hostile(SEED, FAULT_RATE));

    let mut buf = vec![0u8; content.len()];
    for (i, chunk) in buf.chunks_mut(8 * PAGE).enumerate() {
        m.uio_read(seg, (i * 8 * PAGE) as u64, chunk).unwrap();
        // Dirty the first page of every other chunk so writeback (and
        // its retry path) runs under pressure too.
        if i % 2 == 0 {
            let patch = [0xA5u8; 64];
            m.uio_write(seg, (i * 8 * PAGE) as u64, &patch).unwrap();
            chunk[..64].copy_from_slice(&patch);
        }
        m.kernel_mut().charge(Micros::from_secs(1));
        m.tick().unwrap();
    }
    buf
}

#[test]
fn fault_smoke_survives_hostile_store_and_emits_artifacts() {
    let mut m = Machine::with_default_manager(96);
    let tracer = m.enable_event_tracing(65536);

    let expected: Vec<u8> = {
        // Re-derive the final expected image the same way run_workload
        // patches it, independent of what the store did underneath.
        let base: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let mut e = base;
        for start in (0..e.len()).step_by(16 * PAGE) {
            e[start..start + 64].copy_from_slice(&[0xA5u8; 64]);
        }
        e
    };
    let got = run_workload(&mut m);
    assert_eq!(
        got, expected,
        "data corrupted under {FAULT_RATE:.0e} fault rate"
    );

    // Nothing gave up: every injected fault was absorbed by a retry.
    let default = m.default_manager().unwrap();
    let io = m
        .manager(default)
        .unwrap()
        .as_any()
        .downcast_ref::<DefaultSegmentManager>()
        .unwrap()
        .io_retry_stats();
    assert_eq!(
        io.gave_up, 0,
        "manager gave up under transient faults: {io:?}"
    );
    let counts = tracer.kind_counts();
    assert!(
        counts.get("fault_injected").copied().unwrap_or(0) > 0,
        "hostile plan at rate {FAULT_RATE} injected nothing"
    );

    // Artifacts for the CI job (workspace root = cargo test cwd).
    let mut trace_txt = String::new();
    for ev in tracer.events() {
        trace_txt.push_str(&ev.to_string());
        trace_txt.push('\n');
    }
    std::fs::write("FAULT_SMOKE_trace.txt", trace_txt).unwrap();

    let metrics = m.metrics().snapshot();
    let json = JsonObject::new()
        .string("suite", "fault_smoke")
        .f64("fault_rate", FAULT_RATE)
        .u64("faults_injected", m.store().fault_count())
        .u64("io_retries", io.retries)
        .u64("io_gave_up", io.gave_up)
        .raw("metrics", metrics.to_json())
        .finish();
    std::fs::write("FAULT_SMOKE_metrics.json", json).unwrap();
}
