//! The memory-market economy scenarios (`reproduce --economy`), emitted
//! as `BENCH_economy.json`.
//!
//! Runs the `epcm-economy` scenario engine — hundreds of market-funded
//! tenants in premium/standard/spot income classes over a tiered
//! machine, with the coordinator adjusting per-tier rents each epoch
//! from observed DRAM utilization — and reports per-class virtual-time
//! tail latency, residency by tier, and the enforcement ladder counts
//! (voluntary demotions vs forced revocations). Like every other
//! scenario document, the rendered text and the JSON bytes are a pure
//! function of the scenario configs: any `--shards`/`--jobs` split
//! produces identical output (pinned by `tests/scenarios.rs` for the
//! presets and by `tests/shard_determinism.rs` for other seeds).

use epcm_core::tier::MemTier;
use epcm_economy::{EconomyConfig, EconomyReport, IncomeClass};
use epcm_trace::json::{JsonArray, JsonObject};

use crate::shards::trace_digest;

/// Runs each scenario under `workers` worker threads. The reports are
/// byte-identical for every `workers` value.
pub fn run_reports(cfgs: &[EconomyConfig], workers: u32) -> Vec<EconomyReport> {
    cfgs.iter()
        .map(|cfg| epcm_economy::run(cfg, workers))
        .collect()
}

/// True when every scenario's premium p99 is no worse than its spot
/// p99 — the class-ordering property the economy section gates on.
pub fn tail_order_ok(reports: &[EconomyReport]) -> bool {
    reports.iter().all(|r| {
        let premium = r.class(IncomeClass::Premium);
        let spot = r.class(IncomeClass::Spot);
        premium.samples == 0 || spot.samples == 0 || premium.p99_us <= spot.p99_us
    })
}

/// True when the stress scenario's DRAM price climbed strictly above
/// the quick scenario's — price discovery responding to the heavier
/// overcommit. Vacuously true unless both presets are present (compare
/// peaks: trajectories legitimately fall late in a run once
/// enforcement and churn departures have freed DRAM).
pub fn price_response_ok(reports: &[EconomyReport]) -> bool {
    let peak = |name: &str| {
        reports
            .iter()
            .find(|r| r.name == name)
            .map(EconomyReport::peak_dram_rent)
    };
    match (peak("quick"), peak("stress")) {
        (Some(quick), Some(stress)) => stress > quick,
        _ => true,
    }
}

/// Renders the scenarios as aligned text tables.
pub fn render(reports: &[EconomyReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "\n=== Memory-market economy: {} ({} lanes, {} epochs) ===\n",
            r.name, r.lanes, r.epochs
        ));
        out.push_str(
            "class      lanes  p50_us  p99_us  p999_us  bankrupt  dram  slow  zram  demote  revoke  depart\n",
        );
        for c in &r.classes {
            out.push_str(&format!(
                "{:<9} {:>6} {:>7} {:>7} {:>8} {:>9} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7}\n",
                c.class.name(),
                c.lanes,
                c.p50_us,
                c.p99_us,
                c.p999_us,
                c.bankrupt_samples,
                c.final_resident_by_tier[MemTier::Dram.index()],
                c.final_resident_by_tier[MemTier::SlowMem.index()],
                c.final_resident_by_tier[MemTier::CompressedRam.index()],
                c.demotions,
                c.revocations,
                c.departed,
            ));
        }
        out.push_str("epoch   util_milli  rent_dram  rent_slow  rent_zram\n");
        for (epoch, (rents, util)) in r.rents.iter().zip(&r.util_milli).enumerate() {
            out.push_str(&format!(
                "{:<7} {:>10} {:>10.2} {:>10.2} {:>10.2}\n",
                epoch,
                util,
                rents[MemTier::Dram.index()],
                rents[MemTier::SlowMem.index()],
                rents[MemTier::CompressedRam.index()],
            ));
        }
        out.push_str(&format!(
            "ledger: income {:.3}, charged {:.3}, residual {:.3e} (bound {:.3e}), departures {}\n",
            r.total_income, r.total_charged, r.residual, r.residual_bound, r.departures,
        ));
    }
    out.push_str(&format!(
        "tail order (premium p99 <= spot p99): {}\n",
        if tail_order_ok(reports) {
            "ok"
        } else {
            "VIOLATED"
        }
    ));
    if reports.len() > 1 {
        out.push_str(&format!(
            "price response (stress peak above quick peak): {}\n",
            if price_response_ok(reports) {
                "ok"
            } else {
                "VIOLATED"
            }
        ));
    }
    out
}

fn class_json(r: &EconomyReport) -> String {
    let mut classes = JsonArray::new();
    for c in &r.classes {
        let mut obj = JsonObject::new()
            .string("class", c.class.name())
            .u64("lanes", c.lanes)
            .u64("samples", c.samples)
            .u64("p50_us", c.p50_us)
            .u64("p99_us", c.p99_us)
            .u64("p999_us", c.p999_us)
            .u64("bankrupt_samples", c.bankrupt_samples)
            .u64("bankrupt_resident_lanes", c.bankrupt_resident_lanes)
            .u64(
                "resident_dram",
                c.final_resident_by_tier[MemTier::Dram.index()],
            )
            .u64(
                "resident_slow",
                c.final_resident_by_tier[MemTier::SlowMem.index()],
            )
            .u64(
                "resident_zram",
                c.final_resident_by_tier[MemTier::CompressedRam.index()],
            )
            .u64("demotions", c.demotions);
        // Promotions are only emitted for promotion-enabled scenarios,
        // so committed BENCH_economy.json bytes are untouched by the
        // feature.
        if c.promotions > 0 {
            obj = obj.u64("promotions", c.promotions);
        }
        classes.push_raw(
            obj.u64("revocations", c.revocations)
                .u64("seized", c.seized)
                .u64("departed", c.departed)
                .f64("final_balance", c.final_balance)
                .finish(),
        );
    }
    classes.finish()
}

fn scenario_json(r: &EconomyReport) -> String {
    let mut rents = JsonArray::new();
    for (epoch, (tier_rents, util)) in r.rents.iter().zip(&r.util_milli).enumerate() {
        rents.push_raw(
            JsonObject::new()
                .u64("epoch", epoch as u64)
                .u64("util_milli", *util)
                .f64("dram", tier_rents[MemTier::Dram.index()])
                .f64("slow", tier_rents[MemTier::SlowMem.index()])
                .f64("zram", tier_rents[MemTier::CompressedRam.index()])
                .finish(),
        );
    }
    JsonObject::new()
        .string("scenario", r.name)
        .u64("lanes", u64::from(r.lanes))
        .u64("epochs", u64::from(r.epochs))
        .raw("classes", class_json(r))
        .raw("prices", rents.finish())
        .f64("peak_dram_rent", r.peak_dram_rent())
        .f64("final_dram_rent", r.final_dram_rent())
        .u64("departures", r.departures)
        .f64("total_income", r.total_income)
        .f64("total_charged", r.total_charged)
        .f64("ledger_residual", r.residual)
        .f64("residual_bound", r.residual_bound)
        .bool("conserved", r.residual.abs() < r.residual_bound)
        .u64("trace_events", r.shard.trace.len() as u64)
        .string("trace_digest", &format!("{:016x}", trace_digest(&r.shard)))
        .finish()
}

/// The scenarios as one machine-readable document
/// (`BENCH_economy.json`). Carries no worker count and no wall-clock
/// data: the bytes are a pure function of the scenario configs.
pub fn economy_json(reports: &[EconomyReport]) -> String {
    let mut scenarios = JsonArray::new();
    for r in reports {
        scenarios.push_raw(scenario_json(r));
    }
    JsonObject::new()
        .string("bench", "economy")
        .raw("scenarios", scenarios.finish())
        .bool("tail_order_ok", tail_order_ok(reports))
        .bool("price_response_ok", price_response_ok(reports))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_reports() -> Vec<EconomyReport> {
        let cfg = EconomyConfig {
            lanes: 16,
            epochs: 2,
            spill_frames: 16,
            ..EconomyConfig::quick()
        };
        run_reports(&[cfg], 2)
    }

    #[test]
    fn render_and_json_cover_every_class_and_epoch() {
        let reports = tiny_reports();
        let text = render(&reports);
        assert!(text.contains("=== Memory-market economy: quick"));
        assert!(text.contains("premium"));
        assert!(text.contains("spot"));
        assert!(text.contains("rent_dram"));
        let json = economy_json(&reports);
        assert!(json.contains("\"bench\":\"economy\""));
        assert!(json.contains("\"scenario\":\"quick\""));
        assert!(json.contains("\"p999_us\""));
        assert!(json.contains("\"conserved\":true"));
        assert!(json.contains("\"trace_digest\":\""));
        // Single scenario: the cross-preset gate is vacuous.
        assert!(json.contains("\"price_response_ok\":true"));
    }

    #[test]
    fn output_is_worker_count_invariant() {
        let cfg = EconomyConfig {
            lanes: 16,
            epochs: 2,
            spill_frames: 16,
            ..EconomyConfig::quick()
        };
        let serial = run_reports(std::slice::from_ref(&cfg), 1);
        let fanned = run_reports(&[cfg], 4);
        assert_eq!(economy_json(&serial), economy_json(&fanned));
        assert_eq!(render(&serial), render(&fanned));
    }

    #[test]
    fn price_response_compares_presets_by_peak() {
        let mut quick = tiny_reports();
        let mut stress = quick.clone();
        stress[0].name = "stress";
        stress[0].rents.push([9_999.0, 1.0, 1.0]);
        let both: Vec<EconomyReport> = quick.drain(..).chain(stress.drain(..)).collect();
        assert!(price_response_ok(&both));
        // Order in the slice does not matter; names do.
        let inverted: Vec<EconomyReport> = vec![both[1].clone(), both[0].clone()];
        assert!(price_response_ok(&inverted));
        // A stress peak at or below the quick peak violates the gate.
        let mut flat = both.clone();
        flat[1].rents = flat[0].rents.clone();
        assert!(!price_response_ok(&flat));
    }
}
