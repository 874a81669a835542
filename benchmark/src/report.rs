//! Metric records, the metric names the summary JSON line carries, and
//! the determinism digest.

use crate::stats::{fnv1a, Counts, FNV_OFFSET};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Appends `{prefix}_p50`, `_p99` and `_p999` of `counts`, each only
    /// where enough samples lie beyond it.
    pub fn push_percentiles(&mut self, prefix: &str, counts: &Counts, unit: &'static str) {
        for (suffix, q) in [("p50", 500), ("p99", 990), ("p999", 999)] {
            if let Some(v) = counts.percentile(q) {
                self.push(format!("{prefix}_{suffix}"), v as f64, unit);
            }
        }
    }

    /// Appends every metric of `other`.
    pub fn append(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// FNV-1a over every name and value bit pattern: equal exactly when
    /// the model produced the same numbers.
    pub fn digest(&self) -> u64 {
        self.0.iter().fold(FNV_OFFSET, |h, m| {
            let h = fnv1a(m.name.bytes().chain([0]), h);
            fnv1a(m.value.to_bits().to_le_bytes(), h)
        })
    }
}

/// The `end_to_end` metrics of BENCHMARK.json: host-clock measurements of
/// the simulator, reported on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// The `per_layer` metrics of BENCHMARK.json, reported on every workload
/// with `--trace 1` (0 where the workload does not enter the layer).
pub const PER_LAYER: [(&str, &str); 84] = [
    ("virt_op_us_p50", "us"),
    ("virt_op_us_p99", "us"),
    ("kernel.hit_ns_p50", "ns"),
    ("kernel.hit_ns_p99", "ns"),
    ("kernel.hit_ratio", "ratio"),
    ("kernel.crossings_per_fault", "ratio"),
    ("kernel.pages_per_migrate", "ratio"),
    ("kernel.zero_fills", "count"),
    ("kernel.tlb_miss_ratio", "ratio"),
    ("kernel.mapping_miss_ratio", "ratio"),
    ("kernel.slow_access_ratio", "ratio"),
    ("kernel.virt_s", "s"),
    ("kernel.self_ms", "ms"),
    ("machine.fault_ns_p50", "ns"),
    ("machine.fault_ns_p99", "ns"),
    ("machine.fault_virt_us_p50", "us"),
    ("machine.fault_virt_us_p99", "us"),
    ("machine.faults_per_op", "ratio"),
    ("machine.uio_ns_p50", "ns"),
    ("machine.segment_ns_p50", "ns"),
    ("machine.manager_us_per_call", "us"),
    ("machine.tick_ns_p50", "ns"),
    ("machine.tick_ns_p99", "ns"),
    ("machine.tick_host_share", "ratio"),
    ("machine.tick_virt_share", "ratio"),
    ("machine.virt_s", "s"),
    ("machine.self_ms", "ms"),
    ("default_manager.reclaimed", "count"),
    ("default_manager.rescue_ratio", "ratio"),
    ("default_manager.file_fills", "count"),
    ("default_manager.sampling_faults", "count"),
    ("default_manager.demotions", "count"),
    ("default_manager.promotions", "count"),
    ("default_manager.promotion_placed_ratio", "ratio"),
    ("default_manager.heat_events", "count"),
    ("default_manager.wb_stalls", "count"),
    ("default_manager.wb_inflight_peak", "count"),
    ("default_manager.wb_dirty_victim_us", "us"),
    ("default_manager.wb_billed_us", "us"),
    ("ring.batches", "count"),
    ("ring.ops_per_batch", "ratio"),
    ("baseline.app_ns_p50", "ns"),
    ("baseline.self_ms", "ms"),
    ("apps.diff.vpp_ns", "ns"),
    ("apps.uncompress.vpp_ns", "ns"),
    ("apps.latex.vpp_ns", "ns"),
    ("apps.diff.vpp_virt_s", "s"),
    ("apps.uncompress.vpp_virt_s", "s"),
    ("apps.latex.vpp_virt_s", "s"),
    ("apps.diff.ultrix_virt_s", "s"),
    ("apps.uncompress.ultrix_virt_s", "s"),
    ("apps.latex.ultrix_virt_s", "s"),
    ("workloads.virt_s", "s"),
    ("workloads.self_ms", "ms"),
    ("dbms.no_index.host_ms", "ms"),
    ("dbms.in_memory.host_ms", "ms"),
    ("dbms.paging.host_ms", "ms"),
    ("dbms.regeneration.host_ms", "ms"),
    ("dbms.no_index.avg_ms", "ms"),
    ("dbms.in_memory.avg_ms", "ms"),
    ("dbms.paging.avg_ms", "ms"),
    ("dbms.regeneration.avg_ms", "ms"),
    ("dbms.no_index.p99_ms", "ms"),
    ("dbms.in_memory.p99_ms", "ms"),
    ("dbms.paging.p99_ms", "ms"),
    ("dbms.regeneration.p99_ms", "ms"),
    ("dbms.lock_wait_ratio", "ratio"),
    ("dbms.index_restorations", "count"),
    ("shard.run_ms", "ms"),
    ("economy.aggregate_ms", "ms"),
    ("economy.premium.p99_us", "us"),
    ("economy.standard.p99_us", "us"),
    ("economy.spot.p99_us", "us"),
    ("economy.premium.bankrupt_ratio", "ratio"),
    ("economy.standard.bankrupt_ratio", "ratio"),
    ("economy.spot.bankrupt_ratio", "ratio"),
    ("economy.demotions", "count"),
    ("economy.revocations", "count"),
    ("economy.seized", "count"),
    ("economy.departures", "count"),
    ("economy.ledger_residual", "drams"),
    ("economy.peak_dram_rent", "drams/MB/s"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values listed under `key` in BENCHMARK.json.
    fn benchmark_json_names(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(benchmark_json_names("end_to_end"), e2e);
        assert_eq!(benchmark_json_names("per_layer"), layer);
    }

    #[test]
    fn digest_tracks_names_and_values() {
        let mut a = Metrics::default();
        a.push("x", 1.0, "s");
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.push("y", 0.0, "s");
        assert_ne!(a.digest(), b.digest());
        let mut c = Metrics::default();
        c.push("x", 1.5, "s");
        assert_ne!(a.digest(), c.digest());
    }
}
