//! The chaos-injection scenario (`reproduce --chaos seed:rate`),
//! emitted as `BENCH_chaos.json`.
//!
//! Runs the sharded multi-tenant engine with a seeded [`ChaosPlan`]
//! (per-manager crash, hang, slow-reply and byzantine-reply events at
//! deterministic times) and tenant churn enabled, under the same
//! V++-flavoured tenant workload as `--shards`. Every injected failure
//! is contained by the engine — crashes are caught and failed over to
//! the default manager, deadline misses climb the watchdog ladder,
//! byzantine replies are rejected against the grant ledger — and the
//! report records how often each recovery path fired.
//!
//! Like `BENCH_shards.json`, the document carries no worker count and
//! no wall-clock data: the bytes are a pure function of the chaos seed
//! and rate, byte-identical across `--shards N` and `--jobs M` (pinned
//! by `tests/scenarios.rs`; `tests/shard_determinism.rs` checks arbitrary
//! chaos schedules). The registry's chaos section gates that failures
//! were injected and contained: frames and drams conserved, churn
//! departed lanes and every departed lane settled to zero.

use epcm_managers::shard::{self, ShardEngineConfig, ShardRunReport};
use epcm_sim::chaos::ChaosPlan;
use epcm_trace::json::{JsonArray, JsonObject};
use epcm_workloads::runner::VppTenantWorkload;

use crate::shards::trace_digest;

/// The engine configuration of the chaos scenario: the quick sharded
/// config with the given chaos schedule and churn switched on.
pub fn chaos_config(plan: ChaosPlan) -> ShardEngineConfig {
    ShardEngineConfig {
        chaos: Some(plan),
        churn: true,
        ..ShardEngineConfig::quick()
    }
}

/// Runs the chaos scenario under `shards` worker threads.
pub fn run_report(plan: ChaosPlan, shards: u32) -> ShardRunReport {
    let cfg = chaos_config(plan);
    shard::run_with(&cfg, shards, &VppTenantWorkload { seed: cfg.seed })
}

/// Renders the run as aligned text tables plus the merged trace.
pub fn render(plan: &ChaosPlan, report: &ShardRunReport) -> String {
    let mut out = format!(
        "\n=== Chaos-injection run (seed={:#x} rate={:.2}) ===\n\
         lane    faults  mgr_calls  lease_pk   time_us    balance  failovers  fate\n",
        plan.seed(),
        plan.rate(),
    );
    for l in &report.lanes {
        out.push_str(&format!(
            "{:<6} {:>7} {:>10} {:>9} {:>9} {:>10.3} {:>10}  {}\n",
            l.lane,
            l.faults,
            l.manager_calls,
            l.lease_peak,
            l.final_time_us,
            l.balance,
            l.failovers,
            l.fate,
        ));
    }
    out.push_str(&format!(
        "failovers={} crashes={} departures={} spill_over_releases={}\n",
        report.failovers, report.crashes, report.departures, report.spill_over_releases,
    ));
    out.push_str(&format!(
        "spill pool: {} free, conserved={}, market residual {:.6}\n",
        report.pool_free, report.conserved, report.ledger_residual,
    ));
    out.push_str("--- merged chaos trace ---\n");
    for line in &report.trace {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The run as a machine-readable JSON document (`BENCH_chaos.json`).
/// Carries no worker count: the bytes are a pure function of the seed
/// and rate.
pub fn chaos_json(plan: &ChaosPlan, report: &ShardRunReport) -> String {
    let mut lanes = JsonArray::new();
    for l in &report.lanes {
        lanes.push_raw(
            JsonObject::new()
                .u64("lane", l.lane)
                .u64("faults", l.faults)
                .u64("manager_calls", l.manager_calls)
                .u64("lease_peak", l.lease_peak)
                .u64("final_time_us", l.final_time_us)
                .f64("balance", l.balance)
                .u64("failovers", l.failovers)
                .string("fate", &l.fate.to_string())
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "chaos")
        .u64("seed", plan.seed())
        .f64("rate", plan.rate())
        .u64("lanes", report.lanes.len() as u64)
        .raw("per_lane", lanes.finish())
        .u64("failovers", report.failovers)
        .u64("crashes", report.crashes)
        .u64("departures", report.departures)
        .u64("spill_over_releases", report.spill_over_releases)
        .u64("pool_free", report.pool_free)
        .bool("conserved", report.conserved)
        .f64("ledger_residual", report.ledger_residual)
        .u64("trace_events", report.trace.len() as u64)
        .string("trace_digest", &format!("{:016x}", trace_digest(report)))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ChaosPlan {
        ChaosPlan::new(0xD15EA5E).with_rate(0.6)
    }

    #[test]
    fn chaos_report_is_shard_count_invariant() {
        let serial = run_report(plan(), 1);
        for shards in [2u32, 4, 8] {
            let sharded = run_report(plan(), shards);
            assert_eq!(
                chaos_json(&plan(), &serial),
                chaos_json(&plan(), &sharded),
                "--shards {shards} changed BENCH_chaos.json"
            );
            assert_eq!(render(&plan(), &serial), render(&plan(), &sharded));
        }
    }

    #[test]
    fn json_carries_the_chaos_identity_and_counters() {
        let report = run_report(plan(), 2);
        let doc = chaos_json(&plan(), &report);
        for key in [
            "\"bench\":\"chaos\"",
            "\"seed\"",
            "\"rate\"",
            "\"failovers\"",
            "\"crashes\"",
            "\"departures\"",
            "\"spill_over_releases\"",
            "\"trace_digest\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }
}
