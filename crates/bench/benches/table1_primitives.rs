//! Regenerates Table 1 (printed before timing) and benchmarks the real
//! wall-clock cost of the underlying kernel primitives.

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{RingOp, RingPort, DEFAULT_RING_CAPACITY};
use epcm_core::tier::TierLayout;
use epcm_core::translate::MappingTable;
use epcm_core::types::{
    AccessKind, FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE,
};
use epcm_managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm_managers::{Machine, ManagerMode};
use epcm_sim::rng::{Rng, Zipf};
use epcm_workloads::runner::PAPER_FRAMES;

fn bench(c: &mut Criterion) {
    println!("{}", epcm_bench::table1::render());

    // Real-time cost of the kernel's fault dispatch + MigratePages path:
    // migrate a page back and forth between two segments.
    c.bench_function("kernel_migrate_roundtrip", |b| {
        let mut m = Machine::with_default_manager(256);
        let a = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        let bseg = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.touch(a, 0, AccessKind::Write).unwrap();
        b.iter(|| {
            m.kernel_mut()
                .migrate_pages(
                    a,
                    bseg,
                    PageNumber(0),
                    PageNumber(0),
                    1,
                    PageFlags::RW,
                    PageFlags::empty(),
                )
                .unwrap();
            m.kernel_mut()
                .migrate_pages(
                    bseg,
                    a,
                    PageNumber(0),
                    PageNumber(0),
                    1,
                    PageFlags::RW,
                    PageFlags::empty(),
                )
                .unwrap();
        });
    });

    // Resident reference (TLB-hit analog).
    c.bench_function("kernel_reference_hit", |b| {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        b.iter(|| {
            m.kernel_mut()
                .reference(seg, PageNumber(0), AccessKind::Read)
                .unwrap()
        });
    });

    // An 8-byte load from a resident page: one reference and one copy.
    c.bench_function("kernel_load_hit_8b", |b| {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        let mut buf = [0u8; 8];
        b.iter(|| {
            m.kernel_mut()
                .load(seg, black_box(64), &mut buf)
                .unwrap()
                .is_completed()
        });
    });

    // One ring op with its own doorbell, as a manager's fault path issues
    // it: a flag change on a boot-pool page.
    c.bench_function("ring_call_singleton", |b| {
        let mut k = Kernel::new(256);
        let mut port = RingPort::with_capacity(DEFAULT_RING_CAPACITY);
        b.iter(|| {
            port.call(
                &mut k,
                RingOp::ModifyPageFlags {
                    seg: SegmentId::FRAME_POOL,
                    page: PageNumber(black_box(3)),
                    count: 1,
                    set: PageFlags::MANAGER_B,
                    clear: PageFlags::empty(),
                },
            )
            .unwrap()
        });
    });

    // One Zipf(0.9) draw over 4096 ranks, the tier benchmark's stream.
    c.bench_function("zipf_sample_4096", |b| {
        let zipf = Zipf::new(4096, 0.9);
        let mut rng = Rng::seed_from(42);
        b.iter(|| zipf.sample(&mut rng));
    });

    // Cached 4 KB UIO read.
    c.bench_function("uio_read_4k_cached", |b| {
        let mut m = Machine::with_default_manager(512);
        m.store_mut().create("f", 16384);
        let seg = m.open_file("f").unwrap();
        let mut buf = vec![0u8; 4096];
        m.uio_read(seg, 0, &mut buf).unwrap();
        b.iter(|| m.uio_read(seg, 0, &mut buf).unwrap());
    });

    // GetPageAttributes over a 64-page range (manager scan primitive).
    c.bench_function("get_page_attributes_64", |b| {
        let mut m = Machine::with_default_manager(256);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..64 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        b.iter(|| {
            m.kernel_mut()
                .get_page_attributes(seg, PageNumber(0), 64)
                .unwrap()
        });
    });
}

/// Host cost of a machine's fixed state: building and dropping a kernel at
/// the paper's size and at an economy lane's, a whole machine built and
/// torn down (no benchmark interval times the teardown), and one probe of
/// the 64 K mapping table.
fn construction_and_translation(c: &mut Criterion) {
    c.bench_function("kernel_new_paper_frames", |b| {
        b.iter(|| Kernel::new(black_box(PAPER_FRAMES)))
    });

    c.bench_function("kernel_new_lane_32", |b| {
        b.iter(|| Kernel::new(black_box(32)))
    });

    c.bench_function("machine_boot_teardown_paper_frames", |b| {
        b.iter(|| drop(Machine::with_default_manager(black_box(PAPER_FRAMES))))
    });

    // A table holding 4096 translations, as after a 16 MB working set.
    let filled = || {
        let mut table = MappingTable::vpp_default();
        for p in 0..4096u32 {
            table.install(
                SegmentId::FRAME_POOL,
                PageNumber(p.into()),
                FrameId::from_raw(p),
            );
        }
        table
    };

    c.bench_function("mapping_lookup_hit", |b| {
        let mut table = filled();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 4096;
            table.lookup(SegmentId::FRAME_POOL, PageNumber(p))
        });
    });

    c.bench_function("mapping_lookup_miss", |b| {
        let mut table = filled();
        let mut p = 4096u64;
        b.iter(|| {
            p = 4096 + (p + 1) % 4096;
            table.lookup(SegmentId::FRAME_POOL, PageNumber(p))
        });
    });
}

/// Host cost of the per-segment page table and of the manager scans that
/// walk it.
fn page_tables(c: &mut Criterion) {
    // One page-table probe in the boot segment at the paper's size,
    // striding so successive probes land far apart.
    c.bench_function("segment_entry_hit", |b| {
        let kernel = Kernel::new(PAPER_FRAMES);
        let boot = kernel.segment(SegmentId::FRAME_POOL).unwrap();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 7919) % PAPER_FRAMES as u64;
            boot.entry(black_box(PageNumber(p)))
        });
    });

    // Closing a 1024-page file segment whose every page is dirty, on a
    // paper-sized machine: each page is written back and migrated into
    // the first vacant slot of the manager's free pool. Only the close is
    // timed; opening and dirtying the segment is the per-iteration set-up.
    c.bench_function("segment_close_1k", |b| {
        const PAGES: u64 = 1024;
        let m = RefCell::new(Machine::with_default_manager(PAPER_FRAMES));
        m.borrow_mut()
            .store_mut()
            .create("f", (PAGES * BASE_PAGE_SIZE) as usize);
        b.iter_batched(
            || {
                let mut m = m.borrow_mut();
                let seg = m.open_file("f").unwrap();
                for p in 0..PAGES {
                    m.touch(seg, p, AccessKind::Write).unwrap();
                }
                seg
            },
            |seg| m.borrow_mut().close_segment(seg).unwrap(),
            BatchSize::PerIteration,
        );
    });

    // One default-manager tick on the benchmark's 512/2048/512 tiered
    // machine, with its sampling and promotion settings, after a warm-up
    // that overfills memory by a third and re-reads a hot eighth.
    c.bench_function("default_manager_tick_tiered", |b| {
        let layout = TierLayout::new(512, 2048, 512);
        let mut m = Machine::builder(layout.total() as usize)
            .tiers(layout)
            .build();
        let mgr = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                sample_batch: 128,
                promotion_budget: 16,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(mgr);
        let pages = layout.total() * 4 / 3;
        let seg = m.create_segment(SegmentKind::Anonymous, pages).unwrap();
        for p in 0..pages {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        for round in 0..4 {
            for p in 0..pages / 8 {
                m.touch(seg, p, AccessKind::Read).unwrap();
            }
            if round % 2 == 1 {
                m.tick().unwrap();
            }
        }
        b.iter(|| m.tick().unwrap());
    });

    // One tick whose promotion pass swaps 16 times. The set-up builds the
    // same tiered machine with a 2048-page segment touched from the last
    // page down, so DRAM holds its top quarter and the free pool no DRAM
    // frame. Pages 0..16, on SlowMem, take two sampling hits each, and
    // the DRAM pages' reference bits are cleared. Each swap searches for
    // the first cold DRAM page, past 1536 SlowMem pages and the pages
    // already promoted, which stay referenced. The tick also refills the
    // pool; the spent machine is dropped untimed.
    c.bench_function("promotion_pass_tiered", |b| promotion_tick(b, 2048, 0));

    // The same tick with a cold tail: 2000 more SlowMem pages hold one
    // unit of heat each, below the promotion threshold. The segment has
    // 2560 pages, so DRAM holds its top 512. The tick's promotion pass
    // swaps 16 times as above, and its scan meets the cold tail.
    c.bench_function("heat_scan_cold_tail", |b| promotion_tick(b, 2560, 2000));
}

/// Times one tick of a machine that [`promotion_machine`] built one tick
/// away from 16 promotion swaps. The spent machine is dropped untimed.
fn promotion_tick(b: &mut criterion::Bencher, pages: u64, cold: u64) {
    let spent = RefCell::new(None);
    let setup = || {
        spent.borrow_mut().take();
        promotion_machine(pages, cold)
    };
    let (mut m, mgr) = setup();
    m.tick().unwrap();
    let swapped = m.manager(mgr).unwrap().as_any();
    let swapped = swapped.downcast_ref::<DefaultSegmentManager>();
    assert_eq!(swapped.unwrap().promotion_stats().swapped, 16);
    b.iter_batched(
        setup,
        |(mut m, _)| {
            m.tick().unwrap();
            *spent.borrow_mut() = Some(m);
        },
        BatchSize::PerIteration,
    );
}

/// A machine one tick away from 16 promotion swaps, and its manager: a
/// `pages`-page segment touched from the last page down, so DRAM holds
/// its top 512 pages with their reference bits cleared. Pages 0..16 take
/// two sampling hits each, reaching the promotion threshold, and the
/// `cold` pages after them one each.
fn promotion_machine(pages: u64, cold: u64) -> (Machine, ManagerId) {
    let layout = TierLayout::new(512, 2048, 512);
    let mut m = Machine::builder(layout.total() as usize)
        .tiers(layout)
        .build();
    let mgr = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            promotion_budget: 16,
            ..DefaultManagerConfig::default()
        },
    )));
    m.set_default_manager(mgr);
    let seg = m.create_segment(SegmentKind::Anonymous, pages).unwrap();
    for p in (0..pages).rev() {
        m.touch(seg, p, AccessKind::Write).unwrap();
    }
    // A sampling hit: the page's access rights revoked, then a touch.
    let hits = (0..16).chain(0..16 + cold);
    for p in hits {
        m.kernel_mut()
            .modify_page_flags(
                seg,
                PageNumber(p),
                1,
                PageFlags::MANAGER_B,
                PageFlags::READ | PageFlags::WRITE,
            )
            .unwrap();
        m.touch(seg, p, AccessKind::Read).unwrap();
    }
    m.kernel_mut()
        .modify_page_flags(
            seg,
            PageNumber(pages - 512),
            512,
            PageFlags::empty(),
            PageFlags::REFERENCED,
        )
        .unwrap();
    (m, mgr)
}

/// Host cost of moving page data between the file store and frames: one
/// default-manager fault per iteration on a 64-frame machine cycling
/// through a 256-page file, so every fault evicts a page and fills
/// another from the file. Read touches evict clean pages; write touches
/// make every victim dirty, adding its writeback to the file.
fn data_path(c: &mut Criterion) {
    const FILE_PAGES: u64 = 256;
    let cycling = |kind: AccessKind| {
        let mut m = Machine::with_default_manager(64);
        let data = (0..FILE_PAGES * BASE_PAGE_SIZE)
            .map(|i| (i % 251) as u8)
            .collect();
        m.store_mut().create_with("f", data);
        let seg = m.open_file("f").unwrap();
        for p in 0..FILE_PAGES {
            m.touch(seg, p, kind).unwrap();
        }
        let mut p = 0u64;
        move || {
            p = (p + 1) % FILE_PAGES;
            m.touch(seg, p, kind).unwrap()
        }
    };

    c.bench_function("fill_from_file_4k", |b| b.iter(cycling(AccessKind::Read)));

    c.bench_function("evict_dirty_writeback_4k", |b| {
        b.iter(cycling(AccessKind::Write))
    });
}

criterion_group!(
    benches,
    bench,
    construction_and_translation,
    page_tables,
    data_path
);
criterion_main!(benches);
