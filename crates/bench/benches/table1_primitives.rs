//! Regenerates Table 1 (printed before timing) and benchmarks the real
//! wall-clock cost of the underlying kernel primitives.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::tier::TierLayout;
use epcm_core::translate::MappingTable;
use epcm_core::types::{AccessKind, FrameId, PageNumber, SegmentId, SegmentKind};
use epcm_managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm_managers::{Machine, ManagerMode};
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
/// the paper's size and at an economy lane's, and one probe of the 64 K
/// mapping table.
fn construction_and_translation(c: &mut Criterion) {
    c.bench_function("kernel_new_paper_frames", |b| {
        b.iter(|| Kernel::new(black_box(PAPER_FRAMES)))
    });

    c.bench_function("kernel_new_lane_32", |b| {
        b.iter(|| Kernel::new(black_box(32)))
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
}

criterion_group!(benches, bench, construction_and_translation, page_tables);
criterion_main!(benches);
