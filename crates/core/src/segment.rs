//! Segments and bound regions.
//!
//! A V++ segment is "a variable-size address range of zero or more pages".
//! Segments hold page frames directly (the `pages` table) and/or forward
//! ranges of their address space to other segments through *bound regions*
//! — the mechanism that composes a program's virtual address space out of
//! code/data/stack segments in Figure 1 of the paper. A binding may be
//! copy-on-write, in which case the binding segment accumulates private
//! copies of pages as they are written.

use std::fmt;

use crate::bitmap::Bitmap;
use crate::flags::PageFlags;
use crate::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, UserId};

/// A page slot holding a frame and its state flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// The first base frame of the page (a large page spans
    /// `Segment::page_frames` physically contiguous base frames).
    pub frame: FrameId,
    /// Protection and state flags.
    pub flags: PageFlags,
}

/// A binding of a page range in one segment onto an equal-sized range of
/// another segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundRegion {
    /// First page of the bound range in the binding segment.
    pub at: PageNumber,
    /// Length of the range in pages.
    pub pages: u64,
    /// The segment the range forwards to.
    pub target: SegmentId,
    /// First page of the corresponding range in `target`.
    pub target_page: PageNumber,
    /// Copy-on-write: reads pass through to `target`; the first write to a
    /// page faults so a manager can install a private copy here.
    pub cow: bool,
    /// Maximum access permitted through this binding (intersected with the
    /// target page's own protection).
    pub protection: PageFlags,
}

impl BoundRegion {
    /// Whether `page` falls inside this region.
    pub fn contains(&self, page: PageNumber) -> bool {
        page.as_u64() >= self.at.as_u64() && page.as_u64() < self.at.as_u64() + self.pages
    }

    /// Translates a page of the binding segment to the target segment's
    /// numbering.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the region.
    pub fn translate(&self, page: PageNumber) -> PageNumber {
        assert!(self.contains(page), "{page} outside bound region");
        PageNumber(self.target_page.as_u64() + (page.as_u64() - self.at.as_u64()))
    }

    fn overlaps(&self, at: PageNumber, pages: u64) -> bool {
        let (a0, a1) = (self.at.as_u64(), self.at.as_u64() + self.pages);
        let (b0, b1) = (at.as_u64(), at.as_u64() + pages);
        a0 < b1 && b0 < a1
    }
}

/// A kernel segment.
///
/// Most mutation happens through [`Kernel`](crate::kernel::Kernel)
/// operations; `Segment` exposes read accessors for managers and tests.
#[derive(Debug, Clone)]
pub struct Segment {
    id: SegmentId,
    kind: SegmentKind,
    user: UserId,
    manager: ManagerId,
    /// Base (4 KB) frames per page: 1 for normal segments, a power of two
    /// for large-page segments (the Alpha-style page-size parameter).
    page_frames: u64,
    /// Current size in pages; references beyond this are range errors.
    size_pages: u64,
    /// The page table, indexed by page number: a slot per page up to the
    /// highest page ever inserted (which the kernel checks against
    /// `size_pages` before every insert), `None` where no frame is
    /// present.
    pages: Vec<Option<PageEntry>>,
    /// Residency bitmap beside `pages`: bit `p` is set exactly when
    /// `pages[p]` is `Some`, so free-slot searches scan words instead of
    /// entries.
    bits: Bitmap,
    /// Number of `Some` slots in `pages`.
    resident: u64,
    regions: Vec<BoundRegion>,
}

impl Segment {
    pub(crate) fn new(
        id: SegmentId,
        kind: SegmentKind,
        user: UserId,
        manager: ManagerId,
        page_frames: u64,
        size_pages: u64,
    ) -> Self {
        assert!(
            page_frames.is_power_of_two(),
            "page size must be a power-of-two multiple of the base page"
        );
        Segment {
            id,
            kind,
            user,
            manager,
            page_frames,
            size_pages,
            pages: Vec::new(),
            bits: Bitmap::default(),
            resident: 0,
            regions: Vec::new(),
        }
    }

    /// Fills the page table with `entries` in one pass, sized for the
    /// whole segment up front (the boot segment's every-frame map), then
    /// builds the residency bitmap a word at a time: setting a bit per
    /// insert slowed `Kernel::new` at 32 768 frames measurably.
    pub(crate) fn with_entries(
        mut self,
        entries: impl IntoIterator<Item = (PageNumber, PageEntry)>,
    ) -> Self {
        self.pages.reserve(to_index(self.size_pages));
        for (page, entry) in entries {
            self.insert_slot(page, entry);
        }
        self.bits = Bitmap::filled(self.pages.len() as u64);
        if self.resident < self.pages.len() as u64 {
            for (p, e) in (0..).zip(&self.pages) {
                if e.is_none() {
                    self.bits.clear(p);
                }
            }
        }
        self
    }

    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// What the segment is used for.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The owning user principal.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The registered segment manager.
    pub fn manager(&self) -> ManagerId {
        self.manager
    }

    pub(crate) fn set_manager(&mut self, manager: ManagerId) {
        self.manager = manager;
    }

    /// Base frames per page (1 = 4 KB pages).
    pub fn page_frames(&self) -> u64 {
        self.page_frames
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_frames * crate::types::BASE_PAGE_SIZE
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u64 {
        self.size_pages
    }

    pub(crate) fn set_size_pages(&mut self, pages: u64) {
        self.size_pages = pages;
    }

    /// Whether `page` is within the segment's current size.
    pub fn in_range(&self, page: PageNumber) -> bool {
        page.as_u64() < self.size_pages
    }

    /// The page entry at `page`, if a frame is present.
    pub fn entry(&self, page: PageNumber) -> Option<PageEntry> {
        *self.pages.get(to_index(page.as_u64()))?
    }

    pub(crate) fn entry_mut(&mut self, page: PageNumber) -> Option<&mut PageEntry> {
        self.pages.get_mut(to_index(page.as_u64()))?.as_mut()
    }

    /// Installs `entry` at `page`, growing the table to reach it.
    pub(crate) fn insert_entry(&mut self, page: PageNumber, entry: PageEntry) -> Option<PageEntry> {
        self.bits.set(page.as_u64());
        self.insert_slot(page, entry)
    }

    /// The page-table half of [`Self::insert_entry`]; the caller keeps
    /// the bitmap.
    fn insert_slot(&mut self, page: PageNumber, entry: PageEntry) -> Option<PageEntry> {
        debug_assert!(self.in_range(page), "{page} inserted past the segment size");
        let idx = to_index(page.as_u64());
        if idx >= self.pages.len() {
            self.pages.resize(idx + 1, None);
        }
        let old = self.pages[idx].replace(entry);
        if old.is_none() {
            self.resident += 1;
        }
        old
    }

    pub(crate) fn remove_entry(&mut self, page: PageNumber) -> Option<PageEntry> {
        let old = self.pages.get_mut(to_index(page.as_u64()))?.take();
        if old.is_some() {
            self.resident -= 1;
            self.bits.clear(page.as_u64());
        }
        old
    }

    /// Number of pages with frames present ("resident").
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Iterates over `(page, entry)` for all resident pages in page order.
    pub fn resident(&self) -> impl Iterator<Item = (PageNumber, PageEntry)> + '_ {
        self.resident_from(PageNumber(0))
    }

    /// Iterates over `(page, entry)` for the resident pages at or above
    /// `from`, in page order.
    pub fn resident_from(
        &self,
        from: PageNumber,
    ) -> impl Iterator<Item = (PageNumber, PageEntry)> + '_ {
        let start = to_index(from.as_u64()).min(self.pages.len());
        self.pages[start..]
            .iter()
            .zip(start as u64..)
            .filter_map(|(e, p)| e.map(|e| (PageNumber(p), e)))
    }

    /// The residency bitmap: bit `p` is set exactly when page `p` holds
    /// a frame.
    pub fn resident_bits(&self) -> &Bitmap {
        &self.bits
    }

    /// The lowest page holding no frame. When every page below the
    /// segment size is resident this is at or past `size_pages`, where
    /// no frame can be installed.
    pub fn first_vacant(&self) -> PageNumber {
        PageNumber(self.bits.first_zero())
    }

    /// Iterates over the pages at or above `from` and below the segment
    /// size that hold no frame, in page order.
    pub fn vacant_from(&self, from: PageNumber) -> impl Iterator<Item = PageNumber> + '_ {
        let size = self.size_pages;
        let vacant = self.bits.zeros_from(from.as_u64());
        vacant.take_while(move |&p| p < size).map(PageNumber)
    }

    /// The bound region containing `page`, if any.
    pub fn region_at(&self, page: PageNumber) -> Option<&BoundRegion> {
        self.regions.iter().find(|r| r.contains(page))
    }

    /// All bound regions, in insertion order.
    pub fn regions(&self) -> &[BoundRegion] {
        &self.regions
    }

    /// Adds a region; returns `false` (and does nothing) if it would
    /// overlap an existing region.
    pub(crate) fn add_region(&mut self, region: BoundRegion) -> bool {
        if self
            .regions
            .iter()
            .any(|r| r.overlaps(region.at, region.pages))
        {
            return false;
        }
        self.regions.push(region);
        true
    }

    /// Removes the region starting exactly at `at`; returns it if found.
    pub(crate) fn remove_region(&mut self, at: PageNumber) -> Option<BoundRegion> {
        let idx = self.regions.iter().position(|r| r.at == at)?;
        Some(self.regions.remove(idx))
    }

    /// Whether any resident page lies within `[at, at+pages)`.
    pub fn has_resident_in(&self, at: PageNumber, pages: u64) -> bool {
        let len = self.pages.len();
        let start = to_index(at.as_u64()).min(len);
        let end = to_index(at.as_u64().saturating_add(pages)).min(len);
        self.pages[start..end].iter().any(Option::is_some)
    }
}

/// A page number (or page count) as a page-table index. Saturates on
/// targets narrower than 64 bits, where no table can reach such a page.
fn to_index(page: u64) -> usize {
    usize::try_from(page).unwrap_or(usize::MAX)
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} pages, {} resident, {} regions, {})",
            self.id,
            self.kind,
            self.size_pages,
            self.resident,
            self.regions.len(),
            self.manager
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segment {
        Segment::new(
            SegmentId(1),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            1,
            64,
        )
    }

    #[test]
    fn entries_insert_remove() {
        let mut s = seg();
        assert_eq!(s.resident_pages(), 0);
        let e = PageEntry {
            frame: FrameId(9),
            flags: PageFlags::RW,
        };
        assert_eq!(s.insert_entry(PageNumber(3), e), None);
        assert_eq!(s.entry(PageNumber(3)), Some(e));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.remove_entry(PageNumber(3)), Some(e));
        assert_eq!(s.entry(PageNumber(3)), None);
    }

    #[test]
    fn in_range_respects_size() {
        let s = seg();
        assert!(s.in_range(PageNumber(0)));
        assert!(s.in_range(PageNumber(63)));
        assert!(!s.in_range(PageNumber(64)));
    }

    #[test]
    fn region_contains_and_translate() {
        let r = BoundRegion {
            at: PageNumber(10),
            pages: 5,
            target: SegmentId(2),
            target_page: PageNumber(100),
            cow: false,
            protection: PageFlags::RW,
        };
        assert!(r.contains(PageNumber(10)));
        assert!(r.contains(PageNumber(14)));
        assert!(!r.contains(PageNumber(15)));
        assert!(!r.contains(PageNumber(9)));
        assert_eq!(r.translate(PageNumber(12)), PageNumber(102));
    }

    #[test]
    #[should_panic(expected = "outside bound region")]
    fn region_translate_outside_panics() {
        let r = BoundRegion {
            at: PageNumber(0),
            pages: 1,
            target: SegmentId(2),
            target_page: PageNumber(0),
            cow: false,
            protection: PageFlags::RW,
        };
        r.translate(PageNumber(5));
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut s = seg();
        let base = BoundRegion {
            at: PageNumber(0),
            pages: 10,
            target: SegmentId(2),
            target_page: PageNumber(0),
            cow: false,
            protection: PageFlags::RW,
        };
        assert!(s.add_region(base));
        let overlapping = BoundRegion {
            at: PageNumber(9),
            pages: 2,
            ..base
        };
        assert!(!s.add_region(overlapping));
        let adjacent = BoundRegion {
            at: PageNumber(10),
            pages: 2,
            ..base
        };
        assert!(s.add_region(adjacent));
        assert_eq!(s.regions().len(), 2);
    }

    #[test]
    fn region_lookup_and_removal() {
        let mut s = seg();
        let r = BoundRegion {
            at: PageNumber(4),
            pages: 4,
            target: SegmentId(3),
            target_page: PageNumber(0),
            cow: true,
            protection: PageFlags::RW,
        };
        s.add_region(r);
        assert_eq!(s.region_at(PageNumber(5)), Some(&r));
        assert_eq!(s.region_at(PageNumber(3)), None);
        assert_eq!(s.remove_region(PageNumber(4)), Some(r));
        assert_eq!(s.region_at(PageNumber(5)), None);
        assert_eq!(s.remove_region(PageNumber(4)), None);
    }

    #[test]
    fn resident_iteration_in_order() {
        let mut s = seg();
        for p in [5u64, 1, 3] {
            s.insert_entry(
                PageNumber(p),
                PageEntry {
                    frame: FrameId(p as u32),
                    flags: PageFlags::READ,
                },
            );
        }
        let order: Vec<u64> = s.resident().map(|(p, _)| p.as_u64()).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert!(s.has_resident_in(PageNumber(0), 2));
        assert!(!s.has_resident_in(PageNumber(6), 10));
    }

    #[test]
    fn bitmap_tracks_residency_and_vacancies() {
        let entry = |p: u64| {
            (
                PageNumber(p),
                PageEntry {
                    frame: FrameId(p as u32),
                    flags: PageFlags::RW,
                },
            )
        };
        let sized = |pages| {
            Segment::new(
                SegmentId(1),
                SegmentKind::Anonymous,
                UserId(0),
                ManagerId(0),
                1,
                pages,
            )
        };
        // Bulk-built, every slot filled: all ones, a partial last word.
        let full = sized(70).with_entries((0..70).map(entry));
        assert_eq!(full.resident_bits().words(), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(full.first_vacant(), PageNumber(70));
        assert_eq!(full.vacant_from(PageNumber(0)).next(), None);
        // Bulk-built with holes, then changed page by page.
        let mut s = sized(200).with_entries([0, 1, 2, 64, 130].map(entry));
        assert_eq!(s.resident_bits().words(), &[0b111, 1, 1 << 2]);
        assert_eq!(s.first_vacant(), PageNumber(3));
        s.remove_entry(PageNumber(1));
        s.insert_entry(PageNumber(3), entry(3).1);
        assert_eq!(s.first_vacant(), PageNumber(1));
        let vacant: Vec<u64> = s
            .vacant_from(PageNumber(62))
            .map(|p| p.as_u64())
            .take(4)
            .collect();
        assert_eq!(vacant, vec![62, 63, 65, 66]);
        assert_eq!(s.vacant_from(PageNumber(199)).count(), 1);
        assert_eq!(s.vacant_from(PageNumber(200)).count(), 0);
        assert_eq!(s.vacant_from(PageNumber(0)).count(), 200 - 5);
    }

    #[test]
    fn page_size_math() {
        let s = Segment::new(
            SegmentId(2),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            4,
            8,
        );
        assert_eq!(s.page_frames(), 4);
        assert_eq!(s.page_size(), 16384);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_page_size_panics() {
        Segment::new(
            SegmentId(2),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            3,
            8,
        );
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = seg();
        let d = s.to_string();
        assert!(d.contains("seg#1"));
        assert!(d.contains("anonymous"));
        assert!(d.contains("64 pages"));
    }
}
