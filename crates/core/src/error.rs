//! Kernel error types.

use std::fmt;

use crate::fault::FaultEvent;
use crate::types::{FrameId, PageNumber, SegmentId};

/// Errors returned by kernel operations.
///
/// A [`KernelError`] is a *caller mistake or resource condition* — distinct
/// from a page fault, which is a normal event routed to a segment manager
/// (see [`AccessOutcome`](crate::kernel::AccessOutcome)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The segment id does not name a live segment.
    UnknownSegment(SegmentId),
    /// The page index lies outside the segment's current size.
    PageOutOfRange {
        /// Segment accessed.
        segment: SegmentId,
        /// Offending page.
        page: PageNumber,
        /// Current segment size in pages.
        size: u64,
    },
    /// The operation requires a page frame to be present and it is not.
    PageNotPresent {
        /// Segment accessed.
        segment: SegmentId,
        /// Missing page.
        page: PageNumber,
    },
    /// `MigratePages` destination slot already holds a frame.
    DestinationOccupied {
        /// Destination segment.
        segment: SegmentId,
        /// Occupied page.
        page: PageNumber,
    },
    /// A new bound region overlaps an existing one.
    RegionOverlap {
        /// The segment being bound into.
        segment: SegmentId,
        /// First page of the conflicting range.
        page: PageNumber,
    },
    /// Binding would create a cycle or exceed the translation depth limit.
    BindingTooDeep(SegmentId),
    /// The caller is not the manager of the segment it tried to operate on.
    NotManager {
        /// The segment.
        segment: SegmentId,
    },
    /// The operation needs a cached-file segment and this one is not.
    NotAFile(SegmentId),
    /// The operation is invalid for the well-known boot frame-pool segment.
    BootSegmentImmutable,
    /// Backing-store failure surfaced through the kernel.
    Store(epcm_sim::disk::FileStoreError),
    /// A fault occurred while the kernel was already handling a fault for
    /// the same page — the infinite-recursion guard of §2.1 tripped,
    /// meaning a manager faulted on its own fault path.
    RecursiveFault(FaultEvent),
    /// `MigrateFrame` destination frame cannot take part in a tier
    /// exchange: it still sits in the boot pool (unallocated).
    FrameNotExchangeable {
        /// The offending destination frame.
        frame: FrameId,
    },
    /// A page past `u32::MAX`, where no frame can be installed (the frame
    /// table keeps an owner's page in 32 bits).
    PageNotAddressable {
        /// Destination segment.
        segment: SegmentId,
        /// The page past `u32::MAX`.
        page: PageNumber,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            KernelError::PageOutOfRange {
                segment,
                page,
                size,
            } => write!(f, "{page} out of range for {segment} of {size} pages"),
            KernelError::PageNotPresent { segment, page } => {
                write!(f, "{page} of {segment} has no frame")
            }
            KernelError::DestinationOccupied { segment, page } => {
                write!(f, "destination {page} of {segment} already holds a frame")
            }
            KernelError::RegionOverlap { segment, page } => {
                write!(
                    f,
                    "bound region overlaps existing region at {page} of {segment}"
                )
            }
            KernelError::BindingTooDeep(s) => {
                write!(f, "binding chain through {s} exceeds the depth limit")
            }
            KernelError::NotManager { segment } => {
                write!(f, "caller is not the registered manager of {segment}")
            }
            KernelError::NotAFile(s) => write!(f, "{s} is not a cached-file segment"),
            KernelError::BootSegmentImmutable => {
                write!(
                    f,
                    "the boot frame-pool segment cannot be destroyed or resized"
                )
            }
            KernelError::Store(e) => write!(f, "backing store: {e}"),
            KernelError::RecursiveFault(ev) => {
                write!(f, "recursive fault while handling {ev}")
            }
            KernelError::FrameNotExchangeable { frame } => {
                write!(f, "{frame} cannot take part in a tier exchange")
            }
            KernelError::PageNotAddressable { segment, page } => {
                write!(f, "{page} of {segment} is past the 32-bit page range")
            }
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<epcm_sim::disk::FileStoreError> for KernelError {
    fn from(e: epcm_sim::disk::FileStoreError) -> Self {
        KernelError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_ids() {
        let e = KernelError::UnknownSegment(SegmentId(7));
        assert!(e.to_string().contains("seg#7"));
        let e = KernelError::PageNotPresent {
            segment: SegmentId(1),
            page: PageNumber(3),
        };
        assert!(e.to_string().contains("page 3"));
    }

    #[test]
    fn store_error_has_source() {
        use std::error::Error;
        let inner =
            epcm_sim::disk::FileStoreError::UnknownFile(epcm_sim::disk::FileId::from_raw(0));
        let e = KernelError::from(inner);
        assert!(e.source().is_some());
    }
}
