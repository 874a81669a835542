//! # epcm-baseline — the Ultrix 4.1-style comparator VM
//!
//! Every measurement in the paper's Tables 1–3 compares V++ against
//! ULTRIX 4.1 on the same DECstation 5000/200. This crate is that
//! comparator: a *monolithic* kernel virtual-memory system with exactly
//! the behavioural differences the paper enumerates:
//!
//! * page faults are serviced entirely inside the kernel, with a **4 KB
//!   zero-fill on every allocation** ("zeroing is required for security
//!   because the page may be reallocated between applications"),
//! * the unit of I/O transfer is **8 KB** (V++ uses 4 KB, making "twice
//!   as many read and write operations to the kernel"),
//! * pages are allocated in 4 KB units with a kernel-internal clock
//!   replacement policy — no manager processes, no `MigratePages`,
//! * user-level fault handlers go through **signal delivery +
//!   `mprotect`** at 152 µs (the Appel–Li primitive cost quoted in §3.1).
//!
//! The [`vm::UltrixVm`] API mirrors the V++ `Machine` closely enough that
//! `epcm-workloads` runs identical traces on both.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod vm;

pub use cache::BufferCache;
pub use vm::{FileHandle, RegionId, UltrixStats, UltrixVm};
