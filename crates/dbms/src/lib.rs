//! # epcm-dbms — the simulated parallel transaction-processing system
//!
//! §3.3 of the paper: a database transaction system on 6 processors of an
//! SGI 4D/380 over a 120 MB database, 40 transactions/second, "95% small
//! DebitCredit type transactions with the remaining 5% being joins of two
//! relations to update a third", hierarchical locking, and four memory
//! configurations for the join index (Table 4):
//!
//! | Configuration | What happens on a join |
//! |---|---|
//! | No index | full relation scan (CPU-bound) |
//! | Index in memory | fast index probes |
//! | Index with paging | the 1 MB index transparently pages in (256 × ~15 ms) while the join holds its locks |
//! | Index regeneration | the application discarded the index and regenerates it in memory |
//!
//! Exactly as in the paper, "the program is a mixture of implementation
//! and simulation": the [`lock`] manager is real, the [`relation`]
//! storage and [`index`] are real (records and hash buckets in
//! kernel-managed pages; both join plans produce identical rows and the
//! index is provably regenerable), while transaction execution is
//! simulated time on a discrete-event 6-processor [`engine`].

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod engine;
pub mod index;
pub mod lock;
pub mod relation;

pub use config::{DbmsConfig, IndexStrategy};
pub use engine::{run, DbmsReport};
pub use index::HashIndex;
pub use lock::{LockManager, LockMode, Resource, TxnId};
pub use relation::{index_join, nested_loop_join, Joined, Record, Relation};
