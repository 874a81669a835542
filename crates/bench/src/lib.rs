//! # epcm-bench — the evaluation harness
//!
//! Regenerates every table of the paper's evaluation section from the
//! mechanisms in the other crates, and adds the ablation sweeps DESIGN.md
//! calls out. The [`reproduce`](../reproduce/index.html) binary prints
//! paper-vs-measured rows; the Criterion benches (one per table) print
//! the same rows and then time the underlying primitives for real.
//!
//! * [`table1`] — system primitive times (µs), V++ vs Ultrix, measured by
//!   driving the live machines, not by reading the cost model.
//! * [`table23`] — application elapsed times and VM activity.
//! * [`table4`] — the DBMS index space-time tradeoff.
//! * [`ablations`] — manager-mode, zeroing, transfer-unit, protection
//!   batching, replacement policy, prefetch depth, page coloring, memory
//!   market, and DBMS fault-latency sweeps.
//! * [`tiers`] — the tiered-memory sweep (`--tiers`): tier-size ratio
//!   vs. fault handling and DBMS throughput, as `BENCH_tiers.json`.
//! * [`promotion`] — the hot-page promotion ablation (`--promotion`):
//!   the tiers workload with the default manager's promotion stage off
//!   and on, gating that the steady-state hot pass gets strictly
//!   cheaper, as `BENCH_promotion.json`.
//! * [`writeback`] — the sync-vs-async laundry ablation
//!   (`--async-writeback`): fault-path dirty-victim time and total
//!   billed I/O per application, as `BENCH_writeback.json`.
//! * [`ring`] — the batched-ABI crossing-collapse row plus Tables 2–4
//!   rerun on the submission/completion rings (`--batched-abi`), as
//!   `BENCH_ring.json`.
//! * [`shards`] — the sharded multi-tenant scenario (`--shards N`): one
//!   worker thread per shard of tenant lanes, cross-shard leases and
//!   market billing merged deterministically, as `BENCH_shards.json` —
//!   byte-identical for every worker count.
//! * [`chaos`] — the chaos-injection scenario (`--chaos seed:rate`):
//!   the sharded engine under seeded manager crash/hang/byzantine
//!   injection and tenant churn, as `BENCH_chaos.json` — byte-identical
//!   for every worker count.
//! * [`economy`] — the memory-market scenarios (`--economy`): hundreds
//!   of market-funded tenants in premium/standard/spot income classes
//!   over a tiered machine with dynamic per-tier price discovery, as
//!   `BENCH_economy.json` — byte-identical for every worker count.
//! * [`scenario`] — the registry of every `reproduce` section: its flag,
//!   run function and gates. `reproduce` and `tests/scenarios.rs`
//!   iterate over it.
//! * [`json_report`] — the same tables as machine-readable `BENCH_*.json`
//!   documents (with per-run event counts) for CI archival.
//! * [`pool`] — the deterministic worker pool that fans independent
//!   scenarios across threads while keeping every output byte-identical
//!   to the serial run (`reproduce --jobs N`).

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ablations;
pub mod chaos;
pub mod economy;
pub mod json_report;
pub mod pool;
pub mod promotion;
pub mod ring;
pub mod scenario;
pub mod shards;
pub mod table1;
pub mod table23;
pub mod table4;
pub mod tiers;
pub mod writeback;

/// Formats a `paper vs measured` row with a deviation percentage.
pub fn fmt_row(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let dev = if paper == 0.0 {
        0.0
    } else {
        (measured - paper) / paper * 100.0
    };
    format!("{label:<44} {paper:>10.2} {measured:>10.2} {unit:<4} {dev:>+7.1}%")
}

/// Table header matching [`fmt_row`].
pub fn fmt_header(title: &str) -> String {
    format!(
        "\n=== {title} ===\n{:<44} {:>10} {:>10} {:<4} {:>8}",
        "row", "paper", "measured", "unit", "dev"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting_includes_deviation() {
        let r = fmt_row("x", 100.0, 110.0, "us");
        assert!(r.contains("+10.0%"));
        let r = fmt_row("x", 0.0, 5.0, "us");
        assert!(r.contains("+0.0%"));
    }

    #[test]
    fn header_contains_title() {
        assert!(fmt_header("Table 1").contains("Table 1"));
    }
}
