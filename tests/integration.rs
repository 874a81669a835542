//! Cross-crate integration scenarios: whole-system behaviours that span
//! the kernel, managers, SPCM, backing store and applications.

use epcm::core::{AccessKind, PageFlags, PageNumber, SegmentKind, UserId, BASE_PAGE_SIZE};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::generic::{GenericManager, PlainSpec};
use epcm::managers::{Machine, ManagerMode};
use epcm::sim::clock::Micros;
use epcm::sim::disk::Device;
use epcm::trace::EventKind;
use epcm::workloads::runner::run_on_vpp_traced;
use epcm::workloads::trace::{AppSpec, InputFile};

/// A program whose working set exceeds physical memory pages in and out
/// through the default manager with all data intact, and the paging I/O
/// shows up in the store.
#[test]
fn working_set_larger_than_memory() {
    let mut m = Machine::builder(48).device(Device::disk_1992()).build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            target_free: 6,
            low_water: 2,
            refill_batch: 6,
            ..DefaultManagerConfig::default()
        },
    )));
    m.set_default_manager(id);
    let seg = m.create_segment(SegmentKind::Anonymous, 128).unwrap();
    // Write 100 pages (more than 2x memory) with distinct content.
    for p in 0..100u64 {
        let tag = [(p % 251) as u8; 32];
        m.store_bytes(seg, p * BASE_PAGE_SIZE, &tag).unwrap();
    }
    // Read them all back, twice (second round exercises laundry rescues
    // and swap-ins again).
    for round in 0..2 {
        for p in 0..100u64 {
            let mut buf = [0u8; 32];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [(p % 251) as u8; 32], "round {round}, page {p}");
        }
    }
    assert!(m.store().write_count() > 0, "paging wrote to swap");
    assert!(m.store().read_count() > 0, "paging read from swap");
}

/// Two applications under different managers coexist: an in-process
/// generic manager and the server default manager share the SPCM pool,
/// and closing one application returns its frames for the other.
#[test]
fn two_managers_share_the_machine() {
    let mut m = Machine::new(128);
    let fast = m.register_manager(Box::new(GenericManager::new(
        PlainSpec,
        ManagerMode::FaultingProcess,
    )));
    let default = m.register_manager(Box::new(DefaultSegmentManager::server()));
    m.set_default_manager(default);

    let app_a = m
        .create_segment_with(SegmentKind::Anonymous, 32, fast, UserId(1))
        .unwrap();
    let app_b = m.create_segment(SegmentKind::Anonymous, 32).unwrap();
    for p in 0..32 {
        m.touch(app_a, p, AccessKind::Write).unwrap();
        m.touch(app_b, p, AccessKind::Write).unwrap();
    }
    assert!(m.spcm().granted_to(fast) >= 32);
    assert!(m.spcm().granted_to(default) >= 32);

    m.close_segment(app_a).unwrap();
    // All frames still accounted for.
    let kernel = m.kernel();
    let total: u64 = kernel
        .segment_ids()
        .map(|s| kernel.resident_pages(s).unwrap())
        .sum();
    assert_eq!(total, 128);
}

/// The full file lifecycle: create, write through UIO, close (writeback),
/// reopen, read back — across manager and store.
#[test]
fn file_lifecycle_persists_through_close() {
    let mut m = Machine::with_default_manager(512);
    m.store_mut().create("report", 0);
    let seg = m.open_file("report").unwrap();
    let body: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
    m.uio_write(seg, 0, &body).unwrap();
    m.close_segment(seg).unwrap();

    // Reopen: content must come back from the store.
    let seg2 = m.open_file("report").unwrap();
    let mut back = vec![0u8; body.len()];
    m.uio_read(seg2, 0, &mut back).unwrap();
    assert_eq!(back, body);
}

/// Protection carried by bound regions is enforced end-to-end: the
/// manager refuses to lift it and the application sees the denial.
#[test]
fn bound_region_protection_is_enforced() {
    let mut m = Machine::with_default_manager(256);
    let code = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
    m.store_bytes(code, 0, b"text section").unwrap();
    let aspace = m.create_segment(SegmentKind::AddressSpace, 16).unwrap();
    m.kernel_mut()
        .bind_region(
            aspace,
            PageNumber(0),
            8,
            code,
            PageNumber(0),
            false,
            PageFlags::READ | PageFlags::EXECUTE,
        )
        .unwrap();
    // Reads work...
    let mut buf = [0u8; 12];
    m.load(aspace, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"text section");
    // ...writes are denied, not silently fixed up.
    let err = m.store_bytes(aspace, 0, b"overwrite!").unwrap_err();
    assert!(err.to_string().contains("denied"), "{err}");
    // And the code segment is untouched.
    m.load(code, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"text section");
}

/// Fork-style address spaces: two children COW-bound to one parent
/// diverge independently.
#[test]
fn two_cow_children_diverge_independently() {
    let mut m = Machine::with_default_manager(512);
    let parent = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
    m.store_bytes(parent, 0, b"shared state").unwrap();
    let mut children = Vec::new();
    for _ in 0..2 {
        let child = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.kernel_mut()
            .bind_region(
                child,
                PageNumber(0),
                8,
                parent,
                PageNumber(0),
                true,
                PageFlags::RW,
            )
            .unwrap();
        children.push(child);
    }
    m.store_bytes(children[0], 0, b"child0 state").unwrap();
    m.store_bytes(children[1], 0, b"child1 state").unwrap();
    let mut buf = [0u8; 12];
    m.load(parent, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"shared state");
    m.load(children[0], 0, &mut buf).unwrap();
    assert_eq!(&buf, b"child0 state");
    m.load(children[1], 0, &mut buf).unwrap();
    assert_eq!(&buf, b"child1 state");
}

/// Reference sampling steers eviction: under pressure, the pages the
/// program keeps touching stay resident while cold pages get evicted.
#[test]
fn sampling_protects_the_hot_set() {
    let mut m = Machine::new(40);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            sample_batch: 32,
            protection_batch: 1,
            ..DefaultManagerConfig::default()
        },
    )));
    m.set_default_manager(id);
    let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
    // Fill beyond memory with a hot prefix.
    for round in 0..6 {
        for p in 0..8u64 {
            m.touch(seg, p, AccessKind::Write).unwrap(); // hot set
        }
        for p in 0..8u64 {
            m.touch(seg, 8 + round * 8 + p, AccessKind::Write).unwrap(); // cold stream
        }
        m.tick().unwrap(); // sampling sweep
    }
    // Most of the hot set should still be resident.
    let resident_hot = (0..8u64)
        .filter(|&p| {
            m.kernel()
                .segment(seg)
                .unwrap()
                .entry(PageNumber(p))
                .is_some()
        })
        .count();
    assert!(
        resident_hot >= 6,
        "only {resident_hot}/8 hot pages resident"
    );
}

/// The complete Figure 2 path measured end-to-end equals Table 1 row 2
/// in virtual time — the integration-level restatement of the
/// calibration.
#[test]
fn fault_path_cost_is_composable() {
    let mut m = Machine::with_default_manager(256);
    let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
    m.touch(seg, 0, AccessKind::Write).unwrap(); // warm pool
    let t0 = m.now();
    for p in 1..5 {
        m.touch(seg, p, AccessKind::Write).unwrap();
    }
    let per_fault = m.now().duration_since(t0) / 4;
    assert_eq!(per_fault, m.kernel().costs().vpp_minimal_fault_server());
}

/// The §2.2 ownership-assumption protocol: an application takes over a
/// segment the default manager was running, manages it with its own
/// policy (here: discardable pages), and can hand it back.
#[test]
fn segment_ownership_transfer() {
    use epcm::managers::discard::{discardable_manager, mark_discardable, DiscardableManager};

    let mut m = Machine::with_default_manager(256);
    let default = m.default_manager().unwrap();
    let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
    m.store_bytes(seg, 0, b"under default management").unwrap();

    // The application registers its own manager and assumes ownership.
    let app_mgr = m.register_manager(Box::new(discardable_manager()));
    m.transfer_segment(seg, app_mgr).unwrap();
    assert_eq!(m.kernel().segment(seg).unwrap().manager(), app_mgr);

    // Faults now go to the new manager; data written earlier was handed
    // back to the pool at transfer (anonymous data without writeback
    // perishes, as on a real handoff the app re-initialises), and the
    // app uses its own policy from here.
    m.store_bytes(seg, 0, b"now app-managed").unwrap();
    mark_discardable(m.kernel_mut(), seg, PageNumber(0), 1).unwrap();
    m.with_manager(app_mgr, |mgr, env| {
        let mgr = mgr
            .as_any_mut()
            .downcast_mut::<DiscardableManager>()
            .unwrap();
        mgr.shrink(env, 1).map(|_| ())
    })
    .unwrap();
    assert_eq!(m.store().write_count(), 0, "discardable policy in force");

    // Hand it back to the default manager (the swap-out protocol).
    m.transfer_segment(seg, default).unwrap();
    assert_eq!(m.kernel().segment(seg).unwrap().manager(), default);
    m.touch(seg, 0, AccessKind::Write).unwrap();
}

/// The clock probe's `GetPageAttributes` is the eviction's only one: on
/// a DRAM-only machine the demotion stage reuses the flags the probe
/// read for its dirty check. So a run with demotion on makes exactly the
/// attribute calls (and spends exactly the virtual time) of the same run
/// with demotion off, where every call is a clock probe.
#[test]
fn eviction_reads_page_attributes_once_per_probe() {
    let run = |demote_batch: u64| {
        let mut m = Machine::new(64);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                demote_batch,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 256).unwrap();
        let before = m.kernel_stats().get_attr_calls;
        for _ in 0..4 {
            for p in 0..256 {
                m.touch(seg, p, AccessKind::Write).unwrap();
            }
        }
        let reclaimed = m
            .manager(id)
            .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
            .unwrap()
            .manager_stats()
            .reclaimed;
        (m.kernel_stats().get_attr_calls - before, reclaimed, m.now())
    };
    let (probes, evictions, elapsed) = run(0);
    assert!(evictions > 0, "the sweep must evict");
    assert_eq!(run(8), (probes, evictions, elapsed));
}

/// A deliberately tiny event ring on a whole application run wraps: the
/// held events are capped at its capacity, drops are counted, the
/// per-kind counts the metrics report stay equal to an unconstrained
/// ring's, and the survivors are the tail of the full stream.
#[test]
fn ring_wraparound_drops_events_but_not_counts() {
    let spec = AppSpec {
        name: "wraparound".into(),
        inputs: vec![InputFile {
            name: "in".into(),
            size: 64 * 1024,
        }],
        output_bytes: 48 * 1024,
        aux_files: 3,
        heap_pages: 24,
        compute_vpp: Micros::from_millis(2),
        compute_ultrix: Micros::from_millis(2),
    };
    let full = run_on_vpp_traced(&spec, 2048, 1 << 20).unwrap();
    let tiny = run_on_vpp_traced(&spec, 2048, 16).unwrap();
    assert_eq!(tiny.events.len(), 16);
    assert!(tiny.metrics.counter("trace.dropped") > 0);
    assert_eq!(full.metrics.counter("trace.dropped"), 0);
    for key in ["trace.recorded", "trace.events.fault"] {
        assert_eq!(
            tiny.metrics.counter(key),
            full.metrics.counter(key),
            "{key}"
        );
    }
    assert_eq!(tiny.events[..], full.events[full.events.len() - 16..]);
}

/// A metrics snapshot diff isolates exactly the work done between the
/// two snapshots, and the event trace corroborates it.
#[test]
fn snapshot_diff_isolates_incremental_work() {
    let mut m = Machine::with_default_manager(512);
    let tracer = m.enable_event_tracing(4096);
    let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
    m.touch(seg, 0, AccessKind::Write).unwrap();

    let before = m.metrics().snapshot();
    m.touch(seg, 1, AccessKind::Write).unwrap();
    m.touch(seg, 2, AccessKind::Write).unwrap();
    let delta = m.metrics().snapshot().diff(&before);
    assert_eq!(delta.counter("kernel.faults.missing"), 2);
    assert_eq!(delta.counter("trace.events.fault"), 2);
    assert_eq!(delta.counter("machine.manager_calls"), 2);
    // Nothing else about the kernel's fault taxonomy moved.
    assert_eq!(delta.counter("kernel.faults.cow"), 0);
    assert_eq!(delta.counter("kernel.faults.protection"), 0);
    let faults = tracer
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
        .count();
    assert_eq!(faults, 3); // the warm-up fault and the two measured ones
}
