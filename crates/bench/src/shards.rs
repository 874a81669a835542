//! The sharded multi-tenant scenario (`reproduce --shards N`), emitted
//! as `BENCH_shards.json`.
//!
//! Runs the `epcm_managers::shard` engine — one worker thread per shard
//! of tenant lanes, cross-shard leases and market billing merged
//! deterministically at the coordinator — under the V++-flavoured
//! tenant workload from `epcm-workloads`. The report, the rendered
//! table, the merged trace and the JSON document are all byte-identical
//! for **any** worker count: none of them so much as mentions the shard
//! count, and `tests/scenarios.rs` compares the emitted bytes across
//! `--shards 1/2/4/8`.

use epcm_managers::shard::{self, ShardEngineConfig, ShardRunReport};
use epcm_trace::json::{JsonArray, JsonObject};
use epcm_workloads::runner::VppTenantWorkload;

/// Runs the quick sharded scenario under `shards` worker threads.
pub fn run_report(shards: u32) -> ShardRunReport {
    run_report_with(&ShardEngineConfig::quick(), shards)
}

/// Runs the sharded scenario for an explicit engine configuration.
pub fn run_report_with(cfg: &ShardEngineConfig, shards: u32) -> ShardRunReport {
    shard::run_with(cfg, shards, &VppTenantWorkload { seed: cfg.seed })
}

/// FNV-1a over the merged trace lines (newline-terminated), the compact
/// fingerprint `BENCH_shards.json` carries for the full trace.
pub fn trace_digest(report: &ShardRunReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for line in &report.trace {
        for &b in line.as_bytes() {
            eat(b);
        }
        eat(b'\n');
    }
    hash
}

/// Renders the run as aligned text tables plus the merged trace.
pub fn render(report: &ShardRunReport) -> String {
    let mut out = String::from(
        "\n=== Sharded multi-tenant run ===\n\
         lane    faults  mgr_calls  migrated  lease_pk   time_us    balance\n",
    );
    for l in &report.lanes {
        out.push_str(&format!(
            "{:<6} {:>7} {:>10} {:>9} {:>9} {:>9} {:>10.3}\n",
            l.lane,
            l.faults,
            l.manager_calls,
            l.pages_migrated,
            l.lease_peak,
            l.final_time_us,
            l.balance,
        ));
    }
    out.push_str("epoch   demand  capacity  contended  leased  pool_free\n");
    for e in &report.epochs {
        out.push_str(&format!(
            "{:<7} {:>6} {:>9} {:>10} {:>7} {:>10}\n",
            e.epoch, e.demand, e.capacity, e.contended, e.leased, e.pool_free,
        ));
    }
    out.push_str(&format!(
        "spill pool: {} free, conserved={}, market residual {:.6}\n",
        report.pool_free, report.conserved, report.ledger_residual,
    ));
    out.push_str("--- merged cross-shard trace ---\n");
    for line in &report.trace {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The run as a machine-readable JSON document (`BENCH_shards.json`).
/// Deliberately carries no worker count and no wall-clock data: the
/// bytes are a pure function of the engine configuration.
pub fn shards_json(report: &ShardRunReport) -> String {
    let mut lanes = JsonArray::new();
    for l in &report.lanes {
        lanes.push_raw(
            JsonObject::new()
                .u64("lane", l.lane)
                .u64("faults", l.faults)
                .u64("manager_calls", l.manager_calls)
                .u64("pages_migrated", l.pages_migrated)
                .u64("lease_peak", l.lease_peak)
                .u64("final_time_us", l.final_time_us)
                .f64("balance", l.balance)
                .finish(),
        );
    }
    let mut epochs = JsonArray::new();
    for e in &report.epochs {
        epochs.push_raw(
            JsonObject::new()
                .u64("epoch", u64::from(e.epoch))
                .u64("demand", e.demand)
                .u64("capacity", e.capacity)
                .bool("contended", e.contended)
                .u64("leased", e.leased)
                .u64("pool_free", e.pool_free)
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "shards")
        .u64("lanes", report.lanes.len() as u64)
        .raw("per_lane", lanes.finish())
        .raw("epochs", epochs.finish())
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

    fn tiny_report() -> ShardRunReport {
        let cfg = ShardEngineConfig {
            lanes: 4,
            frames_per_lane: 16,
            pages_per_lane: 24,
            epochs: 2,
            rounds_per_epoch: 1,
            spill_frames: 8,
            seed: 11,
            chaos: None,
            churn: false,
            economy: None,
        };
        run_report_with(&cfg, 2)
    }

    #[test]
    fn render_and_json_cover_every_lane_and_epoch() {
        let report = tiny_report();
        let text = render(&report);
        assert!(text.contains("=== Sharded multi-tenant run ==="));
        assert!(text.contains("merged cross-shard trace"));
        let json = shards_json(&report);
        assert!(json.contains("\"bench\":\"shards\""));
        assert!(json.contains("\"lanes\":4"));
        assert!(json.contains("\"conserved\":true"));
        assert!(json.contains("\"trace_digest\":\""));
    }

    #[test]
    fn digest_tracks_the_trace_bytes() {
        let report = tiny_report();
        let mut tweaked = report.clone();
        assert_eq!(trace_digest(&report), trace_digest(&tweaked));
        if let Some(line) = tweaked.trace.first_mut() {
            line.push('x');
        }
        assert_ne!(trace_digest(&report), trace_digest(&tweaked));
    }
}
