//! # epcm-core — the V++ kernel virtual-memory system
//!
//! The mechanism half of *Harty & Cheriton, "Application-Controlled
//! Physical Memory using External Page-Cache Management" (ASPLOS 1992)*:
//! a kernel that exposes physical page frames to process-level managers
//! instead of hiding them behind a transparent virtual address space.
//!
//! The kernel provides (§2.1 of the paper):
//!
//! * **Segments** ([`segment::Segment`]) — variable-size ranges of pages,
//!   used uniformly for cached files, pieces of address spaces, whole
//!   address spaces and frame pools.
//! * **Bound regions** ([`segment::BoundRegion`]) — composition of address
//!   spaces from other segments, including copy-on-write bindings.
//! * **`MigratePages` / `ModifyPageFlags` / `GetPageAttributes` /
//!   `SetSegmentManager`** ([`kernel::Kernel`]) — the four kernel
//!   extensions that make external page-cache management possible.
//! * **Fault events** ([`fault::FaultEvent`]) — classification and
//!   delivery records for the upcall to a manager (Figure 2).
//! * **The boot segment** — all physical frames in physical-address order,
//!   from which the system page cache manager allocates.
//! * **The UIO block interface** — file-like read/write on cached-file
//!   segments at kernel-call cost.
//! * **The global mapping table** ([`translate::MappingTable`]) — the 64 K
//!   direct-mapped hash table + 32-entry overflow of §3.2, modelled slot
//!   for slot but storing only occupied slots, so a kernel's fixed cost
//!   follows the frames it maps rather than 1.5 MB per machine.
//!
//! What the kernel deliberately does **not** contain — page reclamation,
//! writeback, replacement policy, read-ahead, global allocation — lives in
//! the `epcm-managers` crate, exactly as the paper moves it out of the
//! kernel.
//!
//! # Example: the Figure 2 fault path, by hand
//!
//! ```
//! use epcm_core::kernel::{AccessOutcome, Kernel};
//! use epcm_core::flags::PageFlags;
//! use epcm_core::types::{AccessKind, ManagerId, PageNumber, SegmentId, SegmentKind, UserId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::new(128);
//! let seg = kernel.create_segment(
//!     SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), 1, 8)?;
//!
//! // (1) the application references a missing page and faults:
//! let fault = match kernel.reference(seg, PageNumber(0), AccessKind::Write)? {
//!     AccessOutcome::Fault(f) => f,
//!     AccessOutcome::Completed => unreachable!(),
//! };
//! assert_eq!(fault.manager, ManagerId(1));
//!
//! // (2..4) the manager allocates a frame from its free-page segment
//! // (here: straight from the boot pool) and migrates it in:
//! kernel.migrate_pages(
//!     SegmentId::FRAME_POOL, fault.segment,
//!     PageNumber(0), fault.page, 1,
//!     PageFlags::RW, PageFlags::empty())?;
//!
//! // (5) the application resumes and the access completes:
//! assert!(kernel.reference(seg, PageNumber(0), AccessKind::Write)?.is_completed());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bitmap;
pub mod error;
pub mod fault;
pub mod flags;
pub mod frame;
pub mod kernel;
pub mod ring;
pub mod segment;
pub mod shard;
pub mod tier;
pub mod translate;
pub mod types;
pub mod watchdog;

pub use error::KernelError;
pub use fault::{FaultEvent, FaultKind};
pub use flags::PageFlags;
pub use kernel::{AccessOutcome, Kernel, KernelStats, PageAttributes};
pub use ring::{
    CompletionEntry, CompletionRing, Ring, RingFull, RingOp, RingPort, SubmissionEntry,
    SubmissionRing,
};
pub use segment::{BoundRegion, PageEntry, Segment};
pub use shard::{ShardId, ShardLayout, ShardSpec};
pub use tier::{MemTier, TierLayout, TierSpec};
pub use types::{
    AccessKind, FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, UserId, BASE_PAGE_SIZE,
};
pub use watchdog::{UpcallKind, UpcallVerdict, Watchdog, WatchdogConfig};
