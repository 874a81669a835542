//! Event tracing and unified metrics for the EPCM simulation.
//!
//! The paper's evaluation (Tables 1–4) is all *counting*: kernel
//! operations per fault class, migrations per segment operation, dollars
//! charged per billing interval. Before this crate each layer counted its
//! own way — `KernelStats` in `epcm-core`, `MachineStats` plus per-manager
//! stats in `epcm-managers`, `Counter`/`Summary` in `epcm-sim` — and there
//! was no way to ask "what actually happened, in order?".
//!
//! This crate provides the two shared pieces:
//!
//! - **Tracing** ([`event`], [`ring`], [`sink`]): a [`TraceEvent`] taxonomy
//!   covering the kernel interface (faults, migration, page composition,
//!   flag changes, uio transfers) and the management layer (market
//!   charges, reclaims, batched swaps), recorded into a fixed-capacity
//!   [`TraceBuffer`] ring through the [`TraceSink`] trait. The
//!   [`SharedTracer`] handle is a cheaply clonable reference-counted
//!   buffer so the kernel, the system pager and every manager can append
//!   to one time-ordered stream.
//! - **Metrics** ([`metrics`]): a [`MetricsRegistry`] of named counters
//!   and log-bucket histograms with a single snapshot / diff /
//!   serialize-to-JSON surface, replacing ad-hoc struct-by-struct
//!   reporting. Layers export their fast-path counters into the registry
//!   under stable dotted names (`kernel.faults.protection`,
//!   `market.total_charged`, …).
//!
//! Everything here is dependency-free and deterministic: no clocks, no
//! randomness, no allocation beyond the ring itself. Two runs with the
//! same seed must produce byte-identical rendered traces and equal
//! snapshots — the integration tests assert exactly that.
//!
//! This crate sits *below* `epcm-sim` in the dependency graph, so events
//! carry raw integer fields (segment ids, page numbers, microsecond
//! timestamps) rather than the typed wrappers defined higher up.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod event;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod sink;

pub use event::{EventKind, TraceEvent};
pub use metrics::{MetricsDelta, MetricsRegistry, MetricsSnapshot};
pub use ring::TraceBuffer;
pub use sink::{NullSink, SharedTracer, TraceSink};
