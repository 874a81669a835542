//! Property-based tests of the kernel invariants in DESIGN.md §6:
//! frame conservation, translation soundness, copy-on-write isolation and
//! flag-operation algebra, under randomly generated operation sequences;
//! and the global mapping table against a dense reference model of §3.2.

use epcm::core::bitmap::Bitmap;
use epcm::core::kernel::{AccessOutcome, Kernel};
use epcm::core::translate::{MappingStats, MappingTable};
use epcm::core::{
    AccessKind, FaultKind, FrameId, KernelError, PageFlags, PageNumber, SegmentId, SegmentKind,
    UserId,
};
use proptest::prelude::*;

const FRAMES: usize = 64;
const SEGS: u64 = 4;
const PAGES_PER_SEG: u64 = 16;

/// A randomly generated kernel operation.
#[derive(Debug, Clone)]
enum Op {
    Migrate {
        src: u64,
        dst: u64,
        src_page: u64,
        dst_page: u64,
        count: u64,
    },
    ModifyFlags {
        seg: u64,
        page: u64,
        set_dirty: bool,
        clear_write: bool,
    },
    Reference {
        seg: u64,
        page: u64,
        write: bool,
    },
    Store {
        seg: u64,
        page: u64,
        byte: u8,
    },
    /// A `MigrateFrame` tier exchange between two of the pages resident
    /// outside the boot pool, picked by index among them.
    Exchange {
        from: usize,
        to: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..=SEGS,
            0..=SEGS,
            0..PAGES_PER_SEG,
            0..PAGES_PER_SEG,
            1..4u64
        )
            .prop_map(|(src, dst, src_page, dst_page, count)| Op::Migrate {
                src,
                dst,
                src_page,
                dst_page,
                count,
            }),
        (0..SEGS, 0..PAGES_PER_SEG, any::<bool>(), any::<bool>()).prop_map(
            |(seg, page, set_dirty, clear_write)| Op::ModifyFlags {
                seg: seg + 1,
                page,
                set_dirty,
                clear_write,
            }
        ),
        (0..SEGS, 0..PAGES_PER_SEG, any::<bool>()).prop_map(|(seg, page, write)| {
            Op::Reference {
                seg: seg + 1,
                page,
                write,
            }
        }),
        (0..SEGS, 0..PAGES_PER_SEG, any::<u8>()).prop_map(|(seg, page, byte)| Op::Store {
            seg: seg + 1,
            page,
            byte,
        }),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Op::Exchange { from, to }),
    ]
}

/// Builds a kernel with SEGS anonymous segments; segment index 0 in ops
/// means the boot pool.
fn setup() -> (Kernel, Vec<SegmentId>) {
    setup_with(FRAMES)
}

/// [`setup`] on a machine of `frames` frames.
fn setup_with(frames: usize) -> (Kernel, Vec<SegmentId>) {
    let mut kernel = Kernel::new(frames);
    let mut segs = vec![SegmentId::FRAME_POOL];
    for _ in 0..SEGS {
        segs.push(
            kernel
                .create_segment(
                    SegmentKind::Anonymous,
                    UserId::SYSTEM,
                    epcm::core::ManagerId(1),
                    PAGES_PER_SEG,
                )
                .expect("create segment"),
        );
    }
    (kernel, segs)
}

/// Every frame is either in the boot pool or in exactly one segment slot;
/// the frame table's owner of every frame names exactly the slot that
/// maps it, and every segment's residency bitmap marks exactly its
/// resident pages.
fn assert_conservation(kernel: &Kernel) {
    let mut seen = std::collections::BTreeMap::new();
    for seg in kernel.segment_ids().collect::<Vec<_>>() {
        let segment = kernel.segment(seg).expect("segment");
        for (page, entry) in segment.resident() {
            let prev = seen.insert(entry.frame, (seg, page));
            assert!(prev.is_none(), "frame {:?} in two slots", entry.frame);
        }
        let bits = segment.resident_bits();
        let len = segment.size_pages().max(bits.words().len() as u64 * 64);
        for p in 0..len {
            assert_eq!(
                bits.test(p),
                segment.entry(PageNumber(p)).is_some(),
                "residency bit {p} of {seg} out of sync"
            );
        }
    }
    assert_eq!(
        seen.len(),
        kernel.frames().len(),
        "frames lost or duplicated"
    );
    for frame in kernel.frames().ids() {
        assert_eq!(
            Some(&kernel.frames().owner(frame)),
            seen.get(&frame),
            "owner of {frame:?} out of sync"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: frame conservation across arbitrary migrations and
    /// tier exchanges, on machines whose boot bitmap may end in a
    /// partial word.
    #[test]
    fn frames_are_conserved(
        frames in FRAMES..FRAMES + 8,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let (mut kernel, segs) = setup_with(frames);
        assert_conservation(&kernel);
        for op in ops {
            match op {
                Op::Migrate { src, dst, src_page, dst_page, count } => {
                    let _ = kernel.migrate_pages(
                        segs[src as usize],
                        segs[dst as usize],
                        PageNumber(src_page),
                        PageNumber(dst_page),
                        count,
                        PageFlags::RW,
                        PageFlags::empty(),
                    );
                }
                Op::ModifyFlags { seg, page, set_dirty, clear_write } => {
                    let set = if set_dirty { PageFlags::DIRTY } else { PageFlags::empty() };
                    let clear = if clear_write { PageFlags::WRITE } else { PageFlags::empty() };
                    let _ = kernel.modify_page_flags(segs[seg as usize], PageNumber(page), 1, set, clear);
                }
                Op::Reference { seg, page, write } => {
                    let access = if write { AccessKind::Write } else { AccessKind::Read };
                    let _ = kernel.reference(segs[seg as usize], PageNumber(page), access);
                }
                Op::Store { seg, page, byte } => {
                    let _ = kernel.store(segs[seg as usize], page * 4096, &[byte]);
                }
                Op::Exchange { from, to } => {
                    let slots: Vec<_> = segs[1..]
                        .iter()
                        .flat_map(|&seg| {
                            let resident = kernel.segment(seg).expect("segment").resident();
                            resident.map(move |(page, entry)| (seg, page, entry.frame))
                        })
                        .collect();
                    if !slots.is_empty() {
                        let (seg, page, _) = slots[from % slots.len()];
                        let (_, _, dst) = slots[to % slots.len()];
                        kernel.migrate_frame(seg, page, dst).expect("exchange");
                    }
                }
            }
            assert_conservation(&kernel);
        }
    }

    /// Invariant 2: a successful reference implies a present, permitting
    /// page; a fault implies it was missing or denied.
    #[test]
    fn reference_soundness(
        page in 0..PAGES_PER_SEG,
        write in any::<bool>(),
        populate in any::<bool>(),
        revoke in any::<bool>(),
    ) {
        let (mut kernel, segs) = setup();
        let seg = segs[1];
        if populate {
            kernel.migrate_pages(
                SegmentId::FRAME_POOL, seg, PageNumber(0), PageNumber(page),
                1, PageFlags::RW, PageFlags::empty()).expect("populate");
            if revoke {
                kernel.modify_page_flags(
                    seg, PageNumber(page), 1,
                    PageFlags::empty(), PageFlags::WRITE).expect("revoke");
            }
        }
        let access = if write { AccessKind::Write } else { AccessKind::Read };
        match kernel.reference(seg, PageNumber(page), access).expect("no kernel error") {
            AccessOutcome::Completed => {
                let entry = kernel.segment(seg).unwrap().entry(PageNumber(page))
                    .expect("completed access implies a present page");
                prop_assert!(entry.flags.permits(access));
                prop_assert!(entry.flags.contains(PageFlags::REFERENCED));
                if write {
                    prop_assert!(entry.flags.contains(PageFlags::DIRTY));
                }
            }
            AccessOutcome::Fault(fault) => {
                match fault.kind {
                    FaultKind::Missing => prop_assert!(!populate),
                    FaultKind::Protection { .. } => prop_assert!(populate && revoke && write),
                    FaultKind::CopyOnWrite { .. } => prop_assert!(false, "no COW bindings here"),
                }
            }
        }
    }

    /// Invariant 3: after a COW break, source bytes are unchanged and the
    /// copy matches the source at break time.
    #[test]
    fn cow_preserves_source(data in proptest::collection::vec(any::<u8>(), 1..64), page in 0..4u64) {
        let (mut kernel, segs) = setup();
        let (source, child) = (segs[1], segs[2]);
        // Populate and fill the source page.
        kernel.migrate_pages(SegmentId::FRAME_POOL, source, PageNumber(0), PageNumber(page),
            1, PageFlags::RW, PageFlags::empty()).expect("populate");
        let outcome = kernel.store(source, page * 4096, &data).expect("store");
        prop_assert!(outcome.is_completed());
        // COW-bind the child over the whole source.
        kernel.bind_region(child, PageNumber(0), PAGES_PER_SEG, source, PageNumber(0),
            true, PageFlags::RW).expect("bind");
        // Write through the child: first a COW fault, then resolve by
        // giving it a frame, then the write succeeds.
        match kernel.reference(child, PageNumber(page), AccessKind::Write).expect("reference") {
            AccessOutcome::Fault(f) => {
                prop_assert_eq!(f.kind, FaultKind::CopyOnWrite {
                    source_segment: source, source_page: PageNumber(page) });
                kernel.migrate_pages(SegmentId::FRAME_POOL, child, PageNumber(1), PageNumber(page),
                    1, PageFlags::RW, PageFlags::empty()).expect("resolve");
            }
            AccessOutcome::Completed => prop_assert!(false, "must fault first"),
        }
        // The copy equals the source at break time.
        let mut copy = vec![0u8; data.len()];
        prop_assert!(kernel.load(child, page * 4096, &mut copy).expect("load").is_completed());
        prop_assert_eq!(&copy, &data);
        // Mutate the child; the source must not change.
        let outcome = kernel.store(child, page * 4096, &vec![0xFF; data.len()]).expect("store");
        prop_assert!(outcome.is_completed());
        let mut src_after = vec![0u8; data.len()];
        prop_assert!(kernel.load(source, page * 4096, &mut src_after).expect("load").is_completed());
        prop_assert_eq!(&src_after, &data);
    }

    /// Invariant 4: ModifyPageFlags set/clear algebra: idempotent, and
    /// GetPageAttributes reflects the last mutation.
    #[test]
    fn flag_algebra(set_bits in 0u16..256, clear_bits in 0u16..256) {
        let (mut kernel, segs) = setup();
        let seg = segs[1];
        kernel.migrate_pages(SegmentId::FRAME_POOL, seg, PageNumber(0), PageNumber(0),
            1, PageFlags::RW, PageFlags::empty()).expect("populate");
        let set = PageFlags::from_bits_truncate(set_bits);
        let clear = PageFlags::from_bits_truncate(clear_bits);
        kernel.modify_page_flags(seg, PageNumber(0), 1, set, clear).expect("modify");
        let once = kernel.get_page_attributes(seg, PageNumber(0), 1).expect("attrs")[0].flags;
        kernel.modify_page_flags(seg, PageNumber(0), 1, set, clear).expect("modify again");
        let twice = kernel.get_page_attributes(seg, PageNumber(0), 1).expect("attrs")[0].flags;
        prop_assert_eq!(once, twice, "set/clear must be idempotent");
        // Clear wins over set on overlap; otherwise set bits present,
        // cleared bits absent.
        prop_assert!(!once.intersects(clear));
        prop_assert!(once.contains(set - clear));
    }

    /// Loads and stores of 1 B–12 KB at random offsets agree with a flat
    /// `Vec<u8>` model of the segment. The pages are populated in random
    /// order from scattered boot frames, so a chunk copied through the
    /// wrong frame shows. One page stays missing: a range covering it
    /// faults on that page and moves no byte.
    #[test]
    fn load_store_roundtrip(
        page_keys in proptest::collection::vec(any::<u64>(), PAGES_PER_SEG as usize),
        frame_keys in proptest::collection::vec(any::<u64>(), FRAMES),
        missing in 0..PAGES_PER_SEG,
        accesses in proptest::collection::vec(
            (any::<bool>(), 0..SEG_BYTES, 1u64..=3 * PAGE, any::<u64>()),
            1..24,
        ),
    ) {
        let (mut kernel, segs) = setup();
        let seg = segs[1];
        let mut pages: Vec<u64> = (0..PAGES_PER_SEG).filter(|&p| p != missing).collect();
        pages.sort_by_key(|&p| page_keys[p as usize]);
        let mut frames: Vec<u64> = (0..FRAMES as u64).collect();
        frames.sort_by_key(|&f| frame_keys[f as usize]);
        for (&page, &frame) in pages.iter().zip(&frames) {
            kernel.migrate_pages(SegmentId::FRAME_POOL, seg, PageNumber(frame), PageNumber(page),
                1, PageFlags::RW, PageFlags::empty()).expect("populate");
        }
        let mut model = vec![0u8; SEG_BYTES as usize];
        for (store, offset, len, seed) in accesses {
            let len = len.min(SEG_BYTES - offset);
            let span = offset as usize..(offset + len) as usize;
            let covers_missing = (offset / PAGE..=(offset + len - 1) / PAGE).contains(&missing);
            let data = pattern(seed, span.len());
            let outcome = if store {
                let outcome = kernel.store(seg, offset, &data).expect("store");
                if outcome.is_completed() {
                    model[span].copy_from_slice(&data);
                }
                outcome
            } else {
                let mut buf = data.clone();
                let outcome = kernel.load(seg, offset, &mut buf).expect("load");
                let want = if outcome.is_completed() { &model[span] } else { &data[..] };
                prop_assert!(buf == want, "load of {len} B at {offset}: wrong bytes");
                outcome
            };
            match outcome {
                AccessOutcome::Completed => prop_assert!(!covers_missing),
                AccessOutcome::Fault(f) => {
                    prop_assert!(covers_missing, "unexpected fault {f:?}");
                    prop_assert_eq!((f.segment, f.page), (seg, PageNumber(missing)));
                    prop_assert!(matches!(f.kind, FaultKind::Missing));
                }
            }
            prop_assert!(
                frame_bytes(&kernel, seg) == model,
                "segment diverged from the model after {len} B at {offset}"
            );
        }
    }
}

const PAGE: u64 = 4096;
const SEG_BYTES: u64 = PAGES_PER_SEG * PAGE;

/// `len` bytes with no period that divides a page, different for each
/// `seed`, so a chunk moved to or from the wrong frame or offset shows.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

/// The segment's bytes read straight from its frames, zeros where no
/// frame is present: an oracle that does not go through `load`.
fn frame_bytes(kernel: &Kernel, seg: SegmentId) -> Vec<u8> {
    let mut out = vec![0u8; SEG_BYTES as usize];
    for (page, entry) in kernel.segment(seg).expect("segment").resident() {
        let at = (page.as_u64() * PAGE) as usize;
        kernel
            .frames()
            .read(entry.frame, 0, &mut out[at..at + PAGE as usize]);
    }
    out
}

/// Out-of-range and misuse always produce errors, never corruption.
#[test]
fn errors_do_not_corrupt() {
    let (mut kernel, segs) = setup();
    let seg = segs[1];
    assert!(matches!(
        kernel.reference(seg, PageNumber(PAGES_PER_SEG), AccessKind::Read),
        Err(KernelError::PageOutOfRange { .. })
    ));
    assert!(kernel
        .migrate_pages(
            seg,
            seg,
            PageNumber(0),
            PageNumber(1),
            1,
            PageFlags::empty(),
            PageFlags::empty()
        )
        .is_err());
    assert_conservation(&kernel);
}

/// A mapping-table operation over a small key space, so that tables of
/// 1–64 slots see frequent collisions and overflow evictions.
#[derive(Debug, Clone)]
enum TableOp {
    Install { seg: usize, page: u64, frame: u32 },
    Lookup { seg: usize, page: u64 },
    Remove { seg: usize, page: u64 },
    RemoveSegment { seg: usize },
}

const TABLE_SEGS: usize = 3;

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0..TABLE_SEGS, 0..24u64, 0..64u32).prop_map(|(seg, page, frame)| TableOp::Install {
            seg,
            page,
            frame
        }),
        (0..TABLE_SEGS, 0..24u64).prop_map(|(seg, page)| TableOp::Lookup { seg, page }),
        (0..TABLE_SEGS, 0..24u64).prop_map(|(seg, page)| TableOp::Lookup { seg, page }),
        (0..TABLE_SEGS, 0..24u64).prop_map(|(seg, page)| TableOp::Remove { seg, page }),
        (0..TABLE_SEGS).prop_map(|seg| TableOp::RemoveSegment { seg }),
    ]
}

/// The paper's table written the obvious way: one array element per slot,
/// a bounded overflow list, the same Fibonacci slot hash.
struct DenseTable {
    slots: Vec<Option<(SegmentId, u64, FrameId)>>,
    overflow: Vec<(SegmentId, u64, FrameId)>,
    overflow_capacity: usize,
    stats: MappingStats,
}

impl DenseTable {
    fn new(slots: usize, overflow_capacity: usize) -> Self {
        DenseTable {
            slots: vec![None; slots],
            overflow: Vec::new(),
            overflow_capacity,
            stats: MappingStats::default(),
        }
    }

    fn slot(&self, seg: SegmentId, page: u64) -> usize {
        let key = ((seg.as_u32() as u64) << 40) ^ page;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slots.len()
    }

    fn lookup(&mut self, seg: SegmentId, page: u64) -> Option<FrameId> {
        let i = self.slot(seg, page);
        if let Some((s, p, f)) = self.slots[i] {
            if (s, p) == (seg, page) {
                self.stats.direct_hits += 1;
                return Some(f);
            }
        }
        if let Some(&(_, _, f)) = self.overflow.iter().find(|e| (e.0, e.1) == (seg, page)) {
            self.stats.overflow_hits += 1;
            return Some(f);
        }
        self.stats.misses += 1;
        None
    }

    fn install(&mut self, seg: SegmentId, page: u64, frame: FrameId) {
        let i = self.slot(seg, page);
        if let Some(old) = self.slots[i] {
            if (old.0, old.1) != (seg, page) {
                self.stats.displacements += 1;
                if self.overflow.len() < self.overflow_capacity {
                    self.overflow.push(old);
                } else {
                    self.stats.overflow_evictions += 1;
                }
            }
        }
        self.slots[i] = Some((seg, page, frame));
        self.overflow
            .retain(|e| !((e.0, e.1) == (seg, page) && e.2 != frame));
    }

    fn remove(&mut self, seg: SegmentId, page: u64) {
        let i = self.slot(seg, page);
        if matches!(self.slots[i], Some((s, p, _)) if (s, p) == (seg, page)) {
            self.slots[i] = None;
        }
        self.overflow.retain(|e| (e.0, e.1) != (seg, page));
    }

    fn remove_segment(&mut self, seg: SegmentId) {
        for slot in &mut self.slots {
            if matches!(slot, Some((s, _, _)) if *s == seg) {
                *slot = None;
            }
        }
        self.overflow.retain(|e| e.0 != seg);
    }

    fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Distinct segment ids, obtained the only public way: from a kernel.
fn table_segments() -> Vec<SegmentId> {
    let mut kernel = Kernel::new(1);
    (0..TABLE_SEGS)
        .map(|_| {
            kernel
                .create_segment(
                    SegmentKind::Anonymous,
                    UserId::SYSTEM,
                    epcm::core::ManagerId(1),
                    1,
                )
                .expect("create segment")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sparse mapping table answers every lookup, and counts every
    /// hit, miss, displacement and eviction, exactly as the dense table.
    #[test]
    fn mapping_table_matches_dense_model(
        slots in 1usize..=64,
        overflow in 0usize..=4,
        ops in proptest::collection::vec(table_op_strategy(), 1..200),
    ) {
        let segs = table_segments();
        let mut table = MappingTable::with_capacity(slots, overflow);
        let mut model = DenseTable::new(slots, overflow);
        for op in ops {
            match op {
                TableOp::Install { seg, page, frame } => {
                    table.install(segs[seg], PageNumber(page), FrameId::from_raw(frame));
                    model.install(segs[seg], page, FrameId::from_raw(frame));
                }
                TableOp::Lookup { seg, page } => {
                    prop_assert_eq!(
                        table.lookup(segs[seg], PageNumber(page)),
                        model.lookup(segs[seg], page)
                    );
                }
                TableOp::Remove { seg, page } => {
                    table.remove(segs[seg], PageNumber(page));
                    model.remove(segs[seg], page);
                }
                TableOp::RemoveSegment { seg } => {
                    table.remove_segment(segs[seg]);
                    model.remove_segment(segs[seg]);
                }
            }
        }
        prop_assert_eq!(table.stats(), model.stats);
        let expected = format!("mapping table: {}/{slots} slots, {} overflow", model.occupied(), model.overflow.len());
        prop_assert!(table.to_string().starts_with(&expected), "{table} vs {expected}");
    }
}

/// An operation on one segment's page table, driven through the kernel.
#[derive(Debug, Clone)]
enum PageOp {
    /// Moves boot-pool page `from` into the segment at `page`.
    Insert {
        page: u64,
        from: u64,
    },
    /// Moves the segment's `page` back into boot-pool slot `to`.
    Remove {
        page: u64,
        to: u64,
    },
    Flags {
        page: u64,
        set_dirty: bool,
        clear_write: bool,
    },
    Resize {
        size: u64,
    },
}

const PT_FRAMES: u64 = 48;
/// Page numbers run past every size the segment takes, so out-of-range
/// inserts and probes beyond the table's end are drawn too.
const PT_PAGES: u64 = 40;

fn page_op_strategy() -> impl Strategy<Value = PageOp> {
    // Inserts are drawn twice as often as removals, so tables fill up.
    prop_oneof![
        (0..PT_PAGES, 0..PT_FRAMES).prop_map(|(page, from)| PageOp::Insert { page, from }),
        (0..PT_PAGES, 0..PT_FRAMES).prop_map(|(page, from)| PageOp::Insert { page, from }),
        (0..PT_PAGES, 0..PT_FRAMES).prop_map(|(page, to)| PageOp::Remove { page, to }),
        (0..PT_PAGES, any::<bool>(), any::<bool>()).prop_map(|(page, set_dirty, clear_write)| {
            PageOp::Flags {
                page,
                set_dirty,
                clear_write,
            }
        }),
        (0..PT_PAGES).prop_map(|size| PageOp::Resize { size }),
    ]
}

type PageModel = std::collections::BTreeMap<u64, (FrameId, PageFlags)>;

/// Checks one segment's page table against its model through every read
/// accessor, probing `resident_from`, `has_resident_in` and `vacant_from`
/// at `(at, len)`, and the residency bitmap's walks with `mask` (pages
/// that may lie past the table's end) masked out, as the managers'
/// free-slot pickers mask it with their laundry bitmaps.
fn assert_pages_match(
    kernel: &Kernel,
    seg: SegmentId,
    model: &PageModel,
    (at, len): (u64, u64),
    mask: &[u64],
) {
    let s = kernel.segment(seg).expect("live segment");
    let flat =
        |(p, e): (PageNumber, epcm::core::segment::PageEntry)| (p.as_u64(), e.frame, e.flags);
    let want: Vec<_> = model.iter().map(|(&p, &(f, fl))| (p, f, fl)).collect();
    prop_assert_eq!(s.resident().map(flat).collect::<Vec<_>>(), want);
    let want_from: Vec<_> = model.range(at..).map(|(&p, &(f, fl))| (p, f, fl)).collect();
    prop_assert_eq!(
        s.resident_from(PageNumber(at))
            .map(flat)
            .collect::<Vec<_>>(),
        want_from
    );
    prop_assert_eq!(s.resident_pages(), model.len() as u64);
    prop_assert_eq!(
        s.has_resident_in(PageNumber(at), len),
        model.range(at..at + len).next().is_some()
    );
    prop_assert_eq!(
        s.entry(PageNumber(at)).map(|e| (e.frame, e.flags)),
        model.get(&at).copied()
    );
    // The residency bitmap: one set bit per modelled page, none past it.
    let bits = s.resident_bits().words();
    let words = bits.len() as u64;
    for p in 0..words * 64 + 64 {
        let bit = bits
            .get((p / 64) as usize)
            .is_some_and(|w| w >> (p % 64) & 1 == 1);
        prop_assert_eq!(bit, model.contains_key(&p), "bit {}", p);
        prop_assert_eq!(s.resident_bits().test(p), bit, "bit {}", p);
    }
    // The set-bit walk, unmasked and masked.
    let mut mask_bits = Bitmap::default();
    for masked in [false, true] {
        if masked {
            mask.iter().for_each(|&p| mask_bits.set(p));
        }
        let keys = model.keys().copied();
        let want: Vec<u64> = keys.filter(|p| !(masked && mask.contains(p))).collect();
        let walk = s.resident_bits().ones_except(&mask_bits);
        prop_assert_eq!(walk.collect::<Vec<_>>(), want, "masked {}", masked);
    }
    // Set and test across the first word boundary, past the table's end
    // (every table here fits one word), as a growing laundry bitmap does.
    let mut grown = s.resident_bits().clone();
    let mut want: std::collections::BTreeSet<u64> = model.keys().copied().collect();
    for p in [63, 64, 65] {
        prop_assert_eq!(grown.test(p), want.contains(&p), "bit {}", p);
        grown.set(p);
        want.insert(p);
        prop_assert!(grown.test(p), "bit {}", p);
    }
    grown.clear(64);
    want.remove(&64);
    for p in 0..3 * 64 {
        prop_assert_eq!(grown.test(p), want.contains(&p), "bit {}", p);
    }
    let none = Bitmap::default();
    let walk = grown.ones_except(&none);
    prop_assert_eq!(
        walk.collect::<Vec<_>>(),
        want.iter().copied().collect::<Vec<_>>()
    );
    let first_zero = (0..).find(|p| !want.contains(p)).expect("a clear bit");
    prop_assert_eq!(grown.first_zero(), first_zero);
    let first = (0..)
        .find(|p| !model.contains_key(p))
        .expect("a vacant page");
    prop_assert_eq!(s.first_vacant(), PageNumber(first));
    let size = s.size_pages();
    let want_vacant: Vec<u64> = (at..size).filter(|p| !model.contains_key(p)).collect();
    prop_assert_eq!(
        s.vacant_from(PageNumber(at))
            .map(|p| p.as_u64())
            .collect::<Vec<_>>(),
        want_vacant
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense page table and its residency bitmap agree with a
    /// `BTreeMap` model of the same segment, and of the bulk-built boot
    /// segment, after every insert, removal, flag update and resize,
    /// holes and re-inserts included. So do the bitmap operations the
    /// managers use: the set-bit walk masked by another bitmap, and set
    /// and test across a word boundary past the table's end.
    #[test]
    fn segment_page_table_matches_btree_model(
        size in 1..PT_PAGES,
        ops in proptest::collection::vec(
            (page_op_strategy(), 0..PT_PAGES + 4, 0..PT_PAGES + 4),
            1..150,
        ),
        mask in proptest::collection::vec(0..PT_PAGES + 70, 0..24),
    ) {
        let mut kernel = Kernel::new(PT_FRAMES as usize);
        let seg = kernel
            .create_segment(SegmentKind::Anonymous, UserId::SYSTEM, epcm::core::ManagerId(1), size)
            .expect("create segment");
        let mut boot: PageModel = (0..PT_FRAMES)
            .map(|i| (i, (kernel.segment(SegmentId::FRAME_POOL).expect("boot").entry(PageNumber(i)).expect("boot page").frame, PageFlags::RW)))
            .collect();
        let mut model = PageModel::new();
        let mut size = size;
        assert_pages_match(&kernel, SegmentId::FRAME_POOL, &boot, (0, PT_FRAMES), &mask);
        for (op, at, len) in ops {
            let (set, clear) = (PageFlags::REFERENCED, PageFlags::DIRTY);
            match op {
                PageOp::Insert { page, from } => {
                    let ok = page < size && !model.contains_key(&page) && boot.contains_key(&from);
                    let r = kernel.migrate_pages(SegmentId::FRAME_POOL, seg, PageNumber(from), PageNumber(page), 1, set, clear);
                    prop_assert_eq!(r.is_ok(), ok, "{:?}", r);
                    if ok {
                        let (f, fl) = boot.remove(&from).expect("checked");
                        model.insert(page, (f, fl.apply(set, clear)));
                    }
                }
                PageOp::Remove { page, to } => {
                    let ok = model.contains_key(&page) && !boot.contains_key(&to);
                    let r = kernel.migrate_pages(seg, SegmentId::FRAME_POOL, PageNumber(page), PageNumber(to), 1, set, clear);
                    prop_assert_eq!(r.is_ok(), ok, "{:?}", r);
                    if ok {
                        let (f, fl) = model.remove(&page).expect("checked");
                        boot.insert(to, (f, fl.apply(set, clear)));
                    }
                }
                PageOp::Flags { page, set_dirty, clear_write } => {
                    let set = if set_dirty { PageFlags::DIRTY } else { PageFlags::empty() };
                    let clear = if clear_write { PageFlags::WRITE } else { PageFlags::empty() };
                    let r = kernel.modify_page_flags(seg, PageNumber(page), 1, set, clear);
                    prop_assert_eq!(r.is_ok(), model.contains_key(&page), "{:?}", r);
                    if let Some((_, fl)) = model.get_mut(&page) {
                        *fl = fl.apply(set, clear);
                    }
                }
                PageOp::Resize { size: new } => {
                    let ok = model.range(new..).next().is_none();
                    let r = kernel.resize_segment(seg, new);
                    prop_assert_eq!(r.is_ok(), ok, "{:?}", r);
                    if ok {
                        size = new;
                    }
                }
            }
            prop_assert_eq!(kernel.segment(seg).expect("live").size_pages(), size);
            assert_pages_match(&kernel, seg, &model, (at, len), &mask);
            assert_pages_match(&kernel, SegmentId::FRAME_POOL, &boot, (at, len), &mask);
        }
    }
}

/// Segment ids from a kernel that has handed out `n`, so a smaller
/// kernel can be asked about ids past the end of its table.
fn foreign_ids(n: usize) -> Vec<SegmentId> {
    let mut kernel = Kernel::new(1);
    (0..n)
        .map(|_| {
            kernel
                .create_segment(
                    SegmentKind::Anonymous,
                    UserId::SYSTEM,
                    epcm::core::ManagerId(1),
                    1,
                )
                .expect("create segment")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Segment ids are never reused: a destroyed id, or one the kernel
    /// never handed out, stays `UnknownSegment`, every new id is above
    /// every earlier one, and `segment_ids()` lists the live ids
    /// ascending.
    #[test]
    fn segment_ids_are_never_reused(ops in proptest::collection::vec((any::<bool>(), 0usize..16), 1..60)) {
        let mut kernel = Kernel::new(4);
        let mut live = std::collections::BTreeSet::from([SegmentId::FRAME_POOL]);
        let mut dead = Vec::new();
        let mut last = SegmentId::FRAME_POOL;
        for (create, pick) in ops {
            if create || live.len() == 1 {
                let id = kernel
                    .create_segment(SegmentKind::Anonymous, UserId::SYSTEM, epcm::core::ManagerId(1), 4)
                    .expect("create segment");
                prop_assert!(id > last, "{} reused or out of order after {}", id, last);
                last = id;
                live.insert(id);
            } else {
                let id = *live.iter().skip(1).nth(pick % (live.len() - 1)).expect("a live segment");
                kernel.destroy_segment(id).expect("destroy empty segment");
                live.remove(&id);
                dead.push(id);
            }
            prop_assert_eq!(kernel.segment_ids().collect::<Vec<_>>(), live.iter().copied().collect::<Vec<_>>());
            for &id in &dead {
                prop_assert_eq!(kernel.segment(id).map(|s| s.id()), Err(KernelError::UnknownSegment(id)));
                prop_assert_eq!(kernel.destroy_segment(id), Err(KernelError::UnknownSegment(id)));
            }
        }
        let handed_out = last.as_u32() as usize + 1;
        for id in foreign_ids(handed_out + 3).into_iter().skip(handed_out) {
            prop_assert_eq!(kernel.segment(id).map(|s| s.id()), Err(KernelError::UnknownSegment(id)));
            prop_assert_eq!(kernel.resident_pages(id), Err(KernelError::UnknownSegment(id)));
        }
    }
}
