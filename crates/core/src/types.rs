//! Identifier newtypes and basic vocabulary for the V++ kernel model.
//!
//! Each id is a distinct newtype ([C-NEWTYPE]) so that a segment id can
//! never be passed where a frame id is expected — the 1992 C implementation
//! had no such protection.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// The page size: 4 KB, matching the DECstation 5000/200 the paper
/// measured on. Every segment's pages are this size.
pub const BASE_PAGE_SIZE: u64 = 4096;

/// Identifies a kernel segment.
///
/// Segment 0 is the well-known boot segment holding every physical page
/// frame in physical-address order (see
/// [`Kernel::frame_pool`](crate::kernel::Kernel::frame_pool)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub(crate) u32);

impl SegmentId {
    /// The well-known boot segment containing all physical page frames.
    pub const FRAME_POOL: SegmentId = SegmentId(0);

    /// The raw id value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}

/// A page index within a segment (segment-relative, in units of the
/// segment's page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNumber(pub u64);

impl PageNumber {
    /// The page's index as a plain integer.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The page `n` places after this one.
    pub fn offset(self, n: u64) -> PageNumber {
        PageNumber(self.0 + n)
    }
}

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page {}", self.0)
    }
}

impl From<u64> for PageNumber {
    fn from(n: u64) -> Self {
        PageNumber(n)
    }
}

/// Identifies a physical base (4 KB) page frame.
///
/// The physical address of the frame is `index * BASE_PAGE_SIZE` — the boot
/// segment lists frames in physical-address order precisely so managers can
/// reason about physical placement (page coloring, NUMA placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub(crate) u32);

impl FrameId {
    /// Reconstructs a frame id from its raw index (e.g. one previously
    /// obtained from [`FrameId::index`], or for driving the translation
    /// structures standalone). Forged ids are harmless: every kernel
    /// operation validates frames against its own tables.
    pub fn from_raw(raw: u32) -> FrameId {
        FrameId(raw)
    }

    /// The frame's index in the physical frame table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The frame's physical byte address.
    pub fn phys_addr(self) -> u64 {
        self.0 as u64 * BASE_PAGE_SIZE
    }

    /// The frame's cache color given `colors` distinct colors (physical
    /// page number modulo the number of colors, as in Bray et al.'s page
    /// coloring cited by the paper).
    ///
    /// # Panics
    ///
    /// Panics if `colors` is zero.
    pub fn color(self, colors: u32) -> u32 {
        assert!(colors > 0, "color count must be positive");
        self.0 % colors
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// Identifies a segment manager registered with the kernel.
///
/// Manager 0 conventionally belongs to the system page cache manager that
/// owns the boot segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ManagerId(pub u32);

impl ManagerId {
    /// The system page cache manager's well-known id.
    pub const SYSTEM: ManagerId = ManagerId(0);
}

impl fmt::Display for ManagerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mgr#{}", self.0)
    }
}

/// Identifies the protection/security principal that owns a segment.
///
/// V++ zeroes a reallocated frame only when it moves between *users*
/// (unlike Ultrix, which zeroes on every allocation); the kernel compares
/// these ids to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u32);

impl UserId {
    /// The system principal (servers of the "first team").
    pub const SYSTEM: UserId = UserId(0);
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// The kind of memory access that triggered a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data or instruction read.
    Read,
    /// A data write.
    Write,
}

impl AccessKind {
    /// Whether this access modifies the page.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// What a segment is used for. V++ uses segments uniformly for cached
/// files, pieces of address spaces, whole address spaces and the frame
/// pool; the kind only affects which operations make sense (UIO I/O needs a
/// cached file; binding needs an address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Plain anonymous memory (heap, stack, scratch).
    Anonymous,
    /// A cached file: pages are blocks of the named backing file.
    CachedFile(epcm_sim::disk::FileId),
    /// A virtual address space composed by binding regions of other
    /// segments (Figure 1 of the paper).
    AddressSpace,
    /// A pool of free page frames (the boot segment, managers' free-page
    /// segments).
    FramePool,
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentKind::Anonymous => write!(f, "anonymous"),
            SegmentKind::CachedFile(id) => write!(f, "cached-file({id})"),
            SegmentKind::AddressSpace => write!(f, "address-space"),
            SegmentKind::FramePool => write!(f, "frame-pool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_phys_addr_is_index_times_page_size() {
        assert_eq!(FrameId(0).phys_addr(), 0);
        assert_eq!(FrameId(3).phys_addr(), 3 * BASE_PAGE_SIZE);
    }

    #[test]
    fn frame_color_is_modulo() {
        assert_eq!(FrameId(0).color(4), 0);
        assert_eq!(FrameId(5).color(4), 1);
        assert_eq!(FrameId(7).color(4), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frame_color_zero_colors_panics() {
        FrameId(1).color(0);
    }

    #[test]
    fn page_number_offset() {
        assert_eq!(PageNumber(3).offset(4), PageNumber(7));
        assert_eq!(PageNumber::from(9u64).as_u64(), 9);
    }

    #[test]
    fn access_kind_is_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn well_known_ids() {
        assert_eq!(SegmentId::FRAME_POOL.as_u32(), 0);
        assert_eq!(ManagerId::SYSTEM, ManagerId(0));
        assert_eq!(UserId::SYSTEM, UserId(0));
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(SegmentId(4).to_string(), "seg#4");
        assert_eq!(FrameId(2).to_string(), "frame#2");
        assert_eq!(PageNumber(1).to_string(), "page 1");
        assert_eq!(ManagerId(3).to_string(), "mgr#3");
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(SegmentKind::Anonymous.to_string(), "anonymous");
    }
}
