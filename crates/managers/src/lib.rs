//! # epcm-managers — process-level page-cache managers
//!
//! The policy half of *Harty & Cheriton, ASPLOS 1992*: everything the V++
//! kernel deliberately does **not** do. Page reclamation, writeback,
//! replacement policy, read-ahead, global allocation and the memory-market
//! economy all live here, outside the kernel, exactly as the paper's
//! modularisation demands.
//!
//! * [`machine::Machine`] — kernel + store + SPCM + managers, with the
//!   Figure 2 fault-dispatch loop.
//! * [`manager::SegmentManager`] — the manager interface (§2.2).
//! * [`generic`] — the one manager engine, `GenericManager<S>`: free
//!   pool, clock, laundry, writeback, tiers, specialised through the
//!   [`generic::Specialization`] hooks (§2.2's "inheritance" base).
//! * [`default_manager::DefaultSegmentManager`] — the extended-UCDS default
//!   manager that keeps conventional programs oblivious (§2.3): the
//!   engine specialised by [`default_manager::Ucds`].
//! * [`spcm::SystemPageCacheManager`] — global frame allocation with
//!   physical-placement and color constraints (§2.4).
//! * [`market::MemoryMarket`] — the dram economy (§2.4).
//! * [`shard`] — the sharded multi-tenant engine: one worker thread per
//!   shard of tenant lanes, cross-shard effects merged deterministically
//!   through explicit messages (`reproduce --shards N`).
//! * [`policy`] — clock/FIFO/LRU/random replacement, as manager code.
//! * [`prefetch`] — application-directed read-ahead for scan workloads.
//! * [`discard`] — discardable pages without writeback (the Subramanian
//!   case study from related work).
//! * [`coloring`] — page-colored frame allocation.
//! * [`batch`] — the §2.4 batch-program lifecycle: save drams, run a
//!   timeslice, swap out.
//! * [`chaotic`] — a misbehaving manager for the chaos experiments.
//! * [`compress`] — the `CompressedRam` tier's page compression (real RLE
//!   over real page bytes).
//!
//! # Quickstart
//!
//! ```
//! use epcm_managers::Machine;
//! use epcm_core::{AccessKind, SegmentKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::with_default_manager(1024);
//! let heap = machine.create_segment(SegmentKind::Anonymous, 32)?;
//! machine.store_bytes(heap, 0, b"application data")?;
//! let mut buf = [0u8; 16];
//! machine.load(heap, 0, &mut buf)?;
//! assert_eq!(&buf, b"application data");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod batch;
pub mod chaotic;
pub mod coloring;
pub mod compress;
pub mod default_manager;
pub mod discard;
pub mod generic;
pub mod machine;
pub mod manager;
pub mod market;
mod page_rows;
pub mod policy;
pub mod prefetch;
pub mod shard;
pub mod spcm;

pub use chaotic::ChaoticManager;
pub use default_manager::{
    DefaultManagerConfig, DefaultManagerStats, DefaultSegmentManager, IoRetryStats, WritebackStats,
};
pub use machine::{Machine, MachineBuilder, MachineError, MachineStats};
pub use manager::{Env, ManagerError, ManagerMode, SegmentManager};
pub use market::{MarketConfig, MemoryMarket, PriceSchedule};
pub use shard::{
    EpochSummary, LaneFate, LaneResult, ShardEngineConfig, ShardEngineError, ShardRunReport,
    SpillPool, TenantWorkload,
};
pub use spcm::{
    AllocationPolicy, Grant, PhysConstraint, Revocation, RevocationConfig, SpcmError,
    SystemPageCacheManager,
};
