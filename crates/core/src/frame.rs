//! The physical frame table.
//!
//! Frames carry *real* byte contents so that file caching, copy-on-write
//! and the DBMS index structures operate on actual data. A frame holds an
//! optional [`Block`], the same copy-on-write 4 KB handle the
//! [`FileStore`](epcm_sim::disk::FileStore) keeps its files in: no block
//! reads as zeros, zeroing drops the handle, and a frame-to-frame copy or
//! a page fill from a file shares the block instead of copying bytes. The
//! bytes are copied only when a store hits a block another holder still
//! shares. The time cost of zeroing and copying remains a
//! [`CostModel`](epcm_sim::cost::CostModel) charge at the call that models
//! it — the simulation's real heap behaviour is not what is being
//! measured.
//!
//! Every frame has an owner slot, from boot on (a segment holding frames
//! cannot be destroyed). Its page is kept in 32 bits: a [`Frame`] is 32 bytes.

use std::fmt;

use epcm_sim::disk::Block;

use crate::error::KernelError;
use crate::types::{FrameId, PageNumber, SegmentId, UserId, BASE_PAGE_SIZE};

/// One physical base (4 KB) page frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Byte contents; `None` is logically all-zero.
    data: Option<Block>,
    /// The segment and page holding this frame.
    owner: (SegmentId, u32),
    /// The last user principal whose data touched this frame, for V++'s
    /// zero-only-across-users security rule.
    last_user: UserId,
}

impl Frame {
    /// Whether the frame's buffer has been materialised (false = logically
    /// zero without backing allocation).
    pub fn is_materialised(&self) -> bool {
        self.data.is_some()
    }
}

/// The machine's physical memory: an indexed table of [`Frame`]s.
///
/// # Example
///
/// ```
/// use epcm_core::frame::FrameTable;
///
/// let table = FrameTable::new(1024); // 4 MB machine
/// assert_eq!(table.len(), 1024);
/// assert_eq!(table.total_bytes(), 4 * 1024 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct FrameTable {
    frames: Vec<Frame>,
}

impl FrameTable {
    /// Creates `frames` all-zero frames in one pass, each owned by the
    /// boot segment at the page of its own index.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or exceeds `u32::MAX`.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "a machine needs at least one page frame");
        let count = u32::try_from(frames).expect("frame index must fit in u32");
        let boot = |page| Frame {
            data: None,
            owner: (SegmentId::FRAME_POOL, page),
            last_user: UserId::SYSTEM,
        };
        FrameTable {
            frames: (0..count).map(boot).collect(),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the table is empty (never true: construction requires at
    /// least one frame).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total physical memory in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames.len() as u64 * BASE_PAGE_SIZE
    }

    /// Whether `frame` is a valid index.
    pub fn is_valid(&self, frame: FrameId) -> bool {
        frame.index() < self.frames.len()
    }

    /// The frame's current owner slot.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn owner(&self, frame: FrameId) -> (SegmentId, PageNumber) {
        let (segment, page) = self.frames[frame.index()].owner;
        (segment, PageNumber(page.into()))
    }

    /// Sets the frame's owner slot (kernel-internal, used by migration).
    pub(crate) fn set_owner(&mut self, frame: FrameId, owner: (SegmentId, u32)) {
        self.frames[frame.index()].owner = owner;
    }

    /// Exchanges two frames' owner slots (kernel-internal, used by a tier
    /// exchange).
    pub(crate) fn swap_owners(&mut self, a: FrameId, b: FrameId) {
        let owner = self.frames[a.index()].owner;
        self.frames[a.index()].owner = std::mem::replace(&mut self.frames[b.index()].owner, owner);
    }

    /// The last user whose data touched the frame.
    pub fn last_user(&self, frame: FrameId) -> UserId {
        self.frames[frame.index()].last_user
    }

    /// Records the user now using the frame.
    pub(crate) fn set_last_user(&mut self, frame: FrameId, user: UserId) {
        self.frames[frame.index()].last_user = user;
    }

    /// Reads bytes from the frame at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the 4 KB frame.
    pub fn read(&self, frame: FrameId, offset: usize, buf: &mut [u8]) {
        assert!(
            offset + buf.len() <= BASE_PAGE_SIZE as usize,
            "read of {} bytes at {offset} exceeds frame size",
            buf.len()
        );
        match &self.frames[frame.index()].data {
            Some(data) => buf.copy_from_slice(&data.as_slice()[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Writes `buf` into the frame at `offset`, materialising the buffer on
    /// first write and copying it first if another holder shares it.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the 4 KB frame.
    pub fn write(&mut self, frame: FrameId, offset: usize, buf: &[u8]) {
        assert!(
            offset + buf.len() <= BASE_PAGE_SIZE as usize,
            "write of {} bytes at {offset} exceeds frame size",
            buf.len()
        );
        let data = self.frames[frame.index()]
            .data
            .get_or_insert_with(Block::zeroed);
        data.make_mut()[offset..offset + buf.len()].copy_from_slice(buf);
    }

    /// Zero-fills the frame (releases the lazily-allocated buffer).
    pub fn zero(&mut self, frame: FrameId) {
        self.frames[frame.index()].data = None;
    }

    /// Copies the full 4 KB contents of `src` into `dst` by sharing
    /// `src`'s block; a later write to either frame copies it apart.
    pub fn copy(&mut self, src: FrameId, dst: FrameId) {
        let data = self.frames[src.index()].data.clone();
        self.frames[dst.index()].data = data;
    }

    /// A handle to the frame's 4 KB (a shared zero block if the frame was
    /// never written).
    pub fn block(&self, frame: FrameId) -> Block {
        self.frames[frame.index()]
            .data
            .clone()
            .unwrap_or_else(Block::zeroed)
    }

    /// Makes `block` the frame's contents, sharing it rather than copying.
    pub fn set_block(&mut self, frame: FrameId, block: Block) {
        self.frames[frame.index()].data = Some(block);
    }

    /// A shared view of one frame.
    pub fn frame(&self, frame: FrameId) -> &Frame {
        &self.frames[frame.index()]
    }

    /// Iterates over all frame ids in physical-address order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = FrameId> + '_ {
        (0..self.frames.len() as u32).map(FrameId)
    }
}

/// `page` as an owner slot's 32-bit page, or an error past `u32::MAX`.
pub(crate) fn owner_page(segment: SegmentId, page: PageNumber) -> Result<u32, KernelError> {
    u32::try_from(page.as_u64()).map_err(|_| KernelError::PageNotAddressable { segment, page })
}

impl fmt::Display for FrameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames ({} MB)",
            self.frames.len(),
            self.total_bytes() / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 32);
    }

    #[test]
    fn new_table_is_zeroed_and_owned_by_the_boot_segment() {
        let t = FrameTable::new(4);
        for id in t.ids() {
            assert_eq!(
                t.owner(id),
                (SegmentId::FRAME_POOL, PageNumber(id.index() as u64))
            );
            assert_eq!(t.last_user(id), UserId::SYSTEM);
            assert!(!t.frame(id).is_materialised());
            let mut buf = [1u8; 16];
            t.read(id, 0, &mut buf);
            assert_eq!(buf, [0u8; 16]);
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = FrameTable::new(2);
        let f = FrameId(1);
        t.write(f, 100, b"hello");
        let mut buf = [0u8; 5];
        t.read(f, 100, &mut buf);
        assert_eq!(&buf, b"hello");
        assert!(t.frame(f).is_materialised());
    }

    #[test]
    fn zero_releases_buffer() {
        let mut t = FrameTable::new(1);
        let f = FrameId(0);
        t.write(f, 0, b"x");
        t.zero(f);
        assert!(!t.frame(f).is_materialised());
        let mut buf = [9u8; 1];
        t.read(f, 0, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn copy_duplicates_contents() {
        let mut t = FrameTable::new(2);
        t.write(FrameId(0), 0, b"abc");
        t.copy(FrameId(0), FrameId(1));
        let mut buf = [0u8; 3];
        t.read(FrameId(1), 0, &mut buf);
        assert_eq!(&buf, b"abc");
        // Copy of a zero frame zeroes the destination.
        t.copy(FrameId(1), FrameId(0));
        t.write(FrameId(1), 0, b"zzz");
        t.read(FrameId(0), 0, &mut buf);
        assert_eq!(&buf, b"abc", "copy must be by value, not aliased");
    }

    #[test]
    fn copy_shares_until_either_side_writes() {
        let mut t = FrameTable::new(2);
        t.write(FrameId(0), 0, b"abc");
        t.copy(FrameId(0), FrameId(1));
        assert!(Block::ptr_eq(&t.block(FrameId(0)), &t.block(FrameId(1))));
        t.write(FrameId(0), 0, b"x");
        assert!(!Block::ptr_eq(&t.block(FrameId(0)), &t.block(FrameId(1))));
        let mut buf = [0u8; 3];
        t.read(FrameId(1), 0, &mut buf);
        assert_eq!(&buf, b"abc", "the source's write must not reach the copy");
        t.read(FrameId(0), 0, &mut buf);
        assert_eq!(&buf, b"xbc");
    }

    #[test]
    fn set_block_shares_and_a_store_breaks_the_share() {
        let mut t = FrameTable::new(1);
        let f = FrameId(0);
        assert_eq!(t.block(f).as_slice(), &[0u8; 4096][..]);
        assert!(
            !t.frame(f).is_materialised(),
            "reading a block allocates nothing"
        );
        let mut outside = Block::zeroed();
        outside.make_mut()[..4].copy_from_slice(b"page");
        t.set_block(f, outside.clone());
        assert!(Block::ptr_eq(&t.block(f), &outside));
        t.write(f, 0, b"P");
        assert_eq!(
            &outside.as_slice()[..4],
            b"page",
            "the store must not reach the other holder"
        );
        let mut buf = [0u8; 4];
        t.read(f, 0, &mut buf);
        assert_eq!(&buf, b"Page");
    }

    #[test]
    fn owner_tracking() {
        let mut t = FrameTable::new(2);
        let f = FrameId(0);
        t.set_owner(f, (SegmentId(3), u32::MAX));
        assert_eq!(t.owner(f), (SegmentId(3), PageNumber(u64::from(u32::MAX))));
        t.swap_owners(f, FrameId(1));
        assert_eq!(t.owner(f), (SegmentId::FRAME_POOL, PageNumber(1)));
        assert_eq!(t.owner(FrameId(1)).0, SegmentId(3));
    }

    #[test]
    fn owner_pages_past_u32_are_refused() {
        let last = PageNumber(u64::from(u32::MAX));
        assert_eq!(owner_page(SegmentId(2), last), Ok(u32::MAX));
        assert_eq!(
            owner_page(SegmentId(2), last.offset(1)),
            Err(KernelError::PageNotAddressable {
                segment: SegmentId(2),
                page: last.offset(1),
            })
        );
    }

    #[test]
    fn user_tracking() {
        let mut t = FrameTable::new(1);
        let f = FrameId(0);
        assert_eq!(t.last_user(f), UserId::SYSTEM);
        t.set_last_user(f, UserId(5));
        assert_eq!(t.last_user(f), UserId(5));
    }

    #[test]
    fn totals() {
        let t = FrameTable::new(256);
        assert_eq!(t.total_bytes(), 1024 * 1024);
        assert!(t.is_valid(FrameId(255)));
        assert!(!t.is_valid(FrameId(256)));
        assert!(!t.is_empty());
        assert!(t.to_string().contains("256 frames"));
    }

    #[test]
    #[should_panic(expected = "exceeds frame size")]
    fn oversized_write_panics() {
        let mut t = FrameTable::new(1);
        t.write(FrameId(0), 4090, &[0u8; 10]);
    }

    #[test]
    #[should_panic(expected = "at least one page frame")]
    fn zero_frames_panics() {
        FrameTable::new(0);
    }
}
