//! Kernel edge cases: deep binding chains, unbinding semantics, resize
//! interactions, partial UIO faults, mapping-table behaviour under churn,
//! the fault-retry machinery's bounds, and the boot segment's layout.

use epcm::core::kernel::{AccessOutcome, Kernel, MAX_BIND_DEPTH};
use epcm::core::{
    AccessKind, KernelError, ManagerId, PageFlags, PageNumber, SegmentId, SegmentKind, UserId,
};
use epcm::managers::Machine;
use epcm::workloads::runner::PAPER_FRAMES;

fn kernel() -> Kernel {
    Kernel::new(128)
}

fn anon(k: &mut Kernel, pages: u64) -> SegmentId {
    k.create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), pages)
        .unwrap()
}

fn fill(k: &mut Kernel, seg: SegmentId, page: u64) {
    let boot_page = k
        .segment(SegmentId::FRAME_POOL)
        .unwrap()
        .resident()
        .next()
        .unwrap()
        .0;
    k.migrate_pages(
        SegmentId::FRAME_POOL,
        seg,
        boot_page,
        PageNumber(page),
        1,
        PageFlags::RW,
        PageFlags::empty(),
    )
    .unwrap();
}

/// A three-level binding chain resolves to the final owner; exceeding
/// MAX_BIND_DEPTH is rejected at bind time.
#[test]
fn binding_chains_resolve_to_depth_limit() {
    let mut k = kernel();
    let mut segs = vec![anon(&mut k, 8)];
    // MAX_BIND_DEPTH bindings are allowed (the resolver walks them all).
    for _ in 0..MAX_BIND_DEPTH {
        let upper = anon(&mut k, 8);
        let lower = *segs.last().unwrap();
        k.bind_region(
            upper,
            PageNumber(0),
            8,
            lower,
            PageNumber(0),
            false,
            PageFlags::RW,
        )
        .unwrap();
        segs.push(upper);
    }
    // Data written at the top lands in the bottom segment.
    fill(&mut k, segs[0], 3);
    let top = *segs.last().unwrap();
    assert!(k.store(top, 3 * 4096, b"deep").unwrap().is_completed());
    let mut buf = [0u8; 4];
    assert!(k.load(segs[0], 3 * 4096, &mut buf).unwrap().is_completed());
    assert_eq!(&buf, b"deep");
    // One more level breaches the depth limit.
    let too_deep = anon(&mut k, 8);
    let err = k
        .bind_region(
            too_deep,
            PageNumber(0),
            8,
            top,
            PageNumber(0),
            false,
            PageFlags::RW,
        )
        .unwrap_err();
    assert!(matches!(err, KernelError::BindingTooDeep(_)));
}

/// Unbinding keeps COW-broken private pages but severs read-through.
#[test]
fn unbind_keeps_private_pages() {
    let mut k = kernel();
    let source = anon(&mut k, 4);
    fill(&mut k, source, 0);
    fill(&mut k, source, 1);
    assert!(k.store(source, 0, b"zero").unwrap().is_completed());
    assert!(k.store(source, 4096, b"one!").unwrap().is_completed());
    let child = anon(&mut k, 4);
    k.bind_region(
        child,
        PageNumber(0),
        2,
        source,
        PageNumber(0),
        true,
        PageFlags::RW,
    )
    .unwrap();
    // Break page 0 only.
    match k
        .reference(child, PageNumber(0), AccessKind::Write)
        .unwrap()
    {
        AccessOutcome::Fault(_) => fill(&mut k, child, 0),
        AccessOutcome::Completed => panic!("expected COW fault"),
    }
    assert!(k.store(child, 0, b"mine").unwrap().is_completed());
    // Unbind: page 0 (private) survives; page 1 (read-through) is gone.
    k.unbind_region(child, PageNumber(0)).unwrap();
    let mut buf = [0u8; 4];
    assert!(k.load(child, 0, &mut buf).unwrap().is_completed());
    assert_eq!(&buf, b"mine");
    match k.reference(child, PageNumber(1), AccessKind::Read).unwrap() {
        AccessOutcome::Fault(f) => assert_eq!(f.segment, child),
        AccessOutcome::Completed => panic!("read-through must be severed"),
    }
    // Unbinding again errors.
    assert!(k.unbind_region(child, PageNumber(0)).is_err());
}

/// Shrinking below a bound region is refused; growing and rebinding works.
#[test]
fn resize_respects_regions() {
    let mut k = kernel();
    let target = anon(&mut k, 8);
    let seg = anon(&mut k, 16);
    k.bind_region(
        seg,
        PageNumber(8),
        8,
        target,
        PageNumber(0),
        false,
        PageFlags::RW,
    )
    .unwrap();
    assert!(matches!(
        k.resize_segment(seg, 12).unwrap_err(),
        KernelError::RegionOverlap { .. }
    ));
    k.resize_segment(seg, 32).unwrap();
    assert_eq!(k.segment(seg).unwrap().size_pages(), 32);
    k.unbind_region(seg, PageNumber(8)).unwrap();
    k.resize_segment(seg, 4).unwrap();
}

/// A UIO read spanning three pages faults once per missing page and then
/// completes with intact data.
#[test]
fn multi_block_uio_faults_pagewise() {
    let mut m = Machine::with_default_manager(256);
    let content: Vec<u8> = (0..12_288u32).map(|i| (i % 199) as u8).collect();
    m.store_mut().create_with("f", content.clone());
    let seg = m.open_file("f").unwrap();
    let calls_before = m.stats().manager_calls;
    let mut buf = vec![0u8; content.len()];
    m.uio_read(seg, 0, &mut buf).unwrap();
    assert_eq!(buf, content);
    assert_eq!(
        m.stats().manager_calls - calls_before,
        3,
        "one fault per page"
    );
    // Re-read: zero faults.
    let calls = m.stats().manager_calls;
    m.uio_read(seg, 0, &mut buf).unwrap();
    assert_eq!(m.stats().manager_calls, calls);
}

/// A file fill shares the file's block with the frame instead of copying
/// it, yet neither side ever sees the other's writes until a writeback
/// hands the frame's bytes back to the file.
#[test]
fn file_fills_share_blocks_without_aliasing() {
    let mut m = Machine::with_default_manager(256);
    let content: Vec<u8> = (0..8192u32).map(|i| (i % 199) as u8).collect();
    let f = m.store_mut().create_with("f", content.clone());
    let seg = m.open_file("f").unwrap();
    let mut buf = vec![0u8; content.len()];
    m.uio_read(seg, 0, &mut buf).unwrap();
    assert_eq!(buf, content);

    // A store to the filled frame leaves the file unchanged.
    m.uio_write(seg, 0, b"frame").unwrap();
    let mut head = [0u8; 5];
    m.store_mut().read(f, 0, &mut head).unwrap();
    assert_eq!(head, content[..5]);

    // A file write after the fill leaves the frame unchanged.
    m.store_mut().write(f, 4096, b"file!").unwrap();
    m.uio_read(seg, 4096, &mut head).unwrap();
    assert_eq!(head, content[4096..4101]);

    // Closing writes the dirty page back: the file now holds the store.
    m.close_segment(seg).unwrap();
    m.store_mut().read(f, 0, &mut head).unwrap();
    assert_eq!(&head, b"frame");
}

/// Protection mask composition: the most restrictive protection along a
/// binding chain governs.
#[test]
fn protection_masks_compose_along_chains() {
    let mut k = kernel();
    let data = anon(&mut k, 4);
    fill(&mut k, data, 0);
    let middle = anon(&mut k, 4);
    // Middle allows RW...
    k.bind_region(
        middle,
        PageNumber(0),
        4,
        data,
        PageNumber(0),
        false,
        PageFlags::RW,
    )
    .unwrap();
    let top = anon(&mut k, 4);
    // ...but the top binding is read-only.
    k.bind_region(
        top,
        PageNumber(0),
        4,
        middle,
        PageNumber(0),
        false,
        PageFlags::READ,
    )
    .unwrap();
    assert!(k
        .reference(top, PageNumber(0), AccessKind::Read)
        .unwrap()
        .is_completed());
    match k.reference(top, PageNumber(0), AccessKind::Write).unwrap() {
        AccessOutcome::Fault(f) => {
            assert!(matches!(f.kind, epcm::core::FaultKind::Protection { .. }))
        }
        AccessOutcome::Completed => panic!("write must be masked"),
    }
    // Writing through the middle still works.
    assert!(k
        .reference(middle, PageNumber(0), AccessKind::Write)
        .unwrap()
        .is_completed());
}

/// The mapping table tracks migrations: stale translations are removed
/// so no reference ever sees a moved frame.
#[test]
fn mapping_table_stays_coherent_across_migration() {
    let mut k = kernel();
    let a = anon(&mut k, 4);
    let b = anon(&mut k, 4);
    fill(&mut k, a, 0);
    assert!(k.store(a, 0, b"moving").unwrap().is_completed());
    // Populate the mapping table.
    for _ in 0..4 {
        assert!(k
            .reference(a, PageNumber(0), AccessKind::Read)
            .unwrap()
            .is_completed());
    }
    k.migrate_pages(
        a,
        b,
        PageNumber(0),
        PageNumber(2),
        1,
        PageFlags::RW,
        PageFlags::empty(),
    )
    .unwrap();
    // Old slot faults; new slot hits with the data intact.
    assert!(matches!(
        k.reference(a, PageNumber(0), AccessKind::Read).unwrap(),
        AccessOutcome::Fault(_)
    ));
    let mut buf = [0u8; 6];
    assert!(k.load(b, 2 * 4096, &mut buf).unwrap().is_completed());
    assert_eq!(&buf, b"moving");
}

/// Fault livelock detection: a manager that "resolves" without fixing
/// anything is caught after bounded retries, not looped forever.
#[test]
fn livelock_is_bounded() {
    use epcm::core::FaultEvent;
    use epcm::managers::{Env, ManagerError, SegmentManager};

    #[derive(Debug)]
    struct LazyManager(ManagerId);
    impl SegmentManager for LazyManager {
        fn id(&self) -> ManagerId {
            self.0
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn set_id(&mut self, id: ManagerId) {
            self.0 = id;
        }
        fn handle_fault(&mut self, _: &mut Env<'_>, _: &FaultEvent) -> Result<(), ManagerError> {
            Ok(()) // claims success, repairs nothing
        }
        fn reclaim(&mut self, _: &mut Env<'_>, _: u64) -> Result<u64, ManagerError> {
            Ok(0)
        }
        fn segment_closed(&mut self, _: &mut Env<'_>, _: SegmentId) -> Result<(), ManagerError> {
            Ok(())
        }
    }

    let mut m = Machine::new(32);
    let id = m.register_manager(Box::new(LazyManager(ManagerId(0))));
    m.set_default_manager(id);
    let seg = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
    let err = m.touch(seg, 0, AccessKind::Read).unwrap_err();
    assert!(err.to_string().contains("not making progress"), "{err}");
}

/// Segment ids are never reused, even after destruction.
#[test]
fn segment_ids_are_unique_forever() {
    let mut k = kernel();
    let a = anon(&mut k, 1);
    k.destroy_segment(a).unwrap();
    let b = anon(&mut k, 1);
    assert_ne!(a, b);
    assert!(k.segment(a).is_err());
}

/// The boot segment holds every frame at the page of its own index,
/// read-write, and the frame table names that slot as each frame's owner.
#[test]
fn boot_segment_maps_every_frame_to_its_own_page() {
    for frames in [1, 32, PAPER_FRAMES] {
        let k = Kernel::new(frames);
        let boot = k.segment(SegmentId::FRAME_POOL).unwrap();
        assert_eq!(boot.size_pages(), frames as u64);
        assert_eq!(
            k.resident_pages(SegmentId::FRAME_POOL).unwrap(),
            frames as u64
        );
        let mut seen = 0;
        for (page, entry) in boot.resident() {
            assert_eq!(entry.frame.index() as u64, page.as_u64());
            assert_eq!(entry.flags, PageFlags::RW);
            assert_eq!(k.frames().owner(entry.frame), (SegmentId::FRAME_POOL, page));
            seen += 1;
        }
        assert_eq!(seen, frames);
        assert_eq!(k.frames().len(), frames);
    }
}
