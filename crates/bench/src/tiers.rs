//! Tiered-memory sweep: tier-size ratio vs. fault handling and DBMS
//! throughput, emitted as `BENCH_tiers.json`.
//!
//! Each sweep point boots a machine whose frame pool is split into
//! DRAM / SlowMem / CompressedRam per a [`TierLayout`], runs a fixed
//! hot/cold overcommitted workload through the default manager (whose
//! clock gains a demotion stage on tiered machines), and measures the
//! average fault-handling time plus the tier activity counters. The
//! measured fault time is then fed into a quick paging-strategy DBMS
//! run as its per-fault delay, coupling the tier mix to end-to-end
//! transaction throughput the same way §3.3 couples fault latency to
//! response time.
//!
//! Every point owns its whole machine, so points fan out over the
//! [`ScenarioPool`] and the report is byte-identical for any worker
//! count (pinned by `tests/scenarios.rs`).

use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{AccessKind, SegmentKind};
use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_managers::default_manager::DefaultSegmentManager;
use epcm_managers::Machine;
use epcm_sim::clock::Micros;
use epcm_trace::json::{JsonArray, JsonObject};

use crate::pool::ScenarioPool;

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct TierPoint {
    /// The tier split this point ran with.
    pub layout: TierLayout,
    /// Average manager time per dispatch over the measured window (µs).
    pub avg_fault_us: f64,
    /// Pages the default manager demoted instead of evicting.
    pub demotions: u64,
    /// Kernel `MigrateFrame` exchanges performed.
    pub tier_migrations: u64,
    /// References that paid the SlowMem latency.
    pub slow_accesses: u64,
    /// References that paid the CompressedRam latency.
    pub zram_accesses: u64,
    /// Average DBMS transaction time with the measured fault delay (ms).
    pub dbms_avg_ms: f64,
    /// DBMS throughput at that response time (transactions/second).
    pub dbms_tps: f64,
}

/// The tier splits measured for a requested layout: the request itself,
/// the single-tier degenerate split, and a fixed DRAM-share family over
/// the same total (half, quarter, eighth; the remainder split 4:1
/// between SlowMem and CompressedRam, like the issue's 64/256/64
/// example). Duplicates of the request are dropped so the declared
/// order — and hence the report bytes — depends only on the request.
pub fn sweep_points(requested: TierLayout) -> Vec<TierLayout> {
    let total = requested.total();
    let mut points = vec![requested];
    let mut push = |layout: TierLayout| {
        if !points.contains(&layout) {
            points.push(layout);
        }
    };
    push(TierLayout::dram_only(total));
    for share in [2u64, 4, 8] {
        let dram = (total / share).max(1);
        let rest = total - dram;
        let slow = rest * 4 / 5;
        push(TierLayout::new(dram, slow, rest - slow));
    }
    points
}

/// Runs the fixed workload on one tier split and measures it.
pub fn measure_point(layout: TierLayout) -> TierPoint {
    let total = layout.total();
    let mut m = Machine::builder(total as usize).tiers(layout).build();
    let id = m.register_manager(Box::new(DefaultSegmentManager::server()));
    m.set_default_manager(id);
    // Overcommit by 50% so the clock must reclaim (and, on tiered
    // machines, demote) throughout the run.
    let pages = total + total / 2;
    let seg = m
        .create_segment(SegmentKind::Anonymous, pages)
        .expect("sweep segment");
    for p in 0..pages {
        m.touch(seg, p, AccessKind::Write).expect("warm write");
    }
    let _ = m.tick();

    // Measured window: a hot set re-referenced between cold scans that
    // dirty everything again — the 80/20 shape the clock is built for.
    let s0 = m.stats();
    let hot = (layout.count(MemTier::Dram) / 2).max(8).min(pages);
    for _round in 0..3 {
        for p in 0..hot {
            m.touch(seg, p, AccessKind::Read).expect("hot read");
        }
        for p in hot..pages {
            m.touch(seg, p, AccessKind::Write).expect("cold write");
        }
        let _ = m.tick();
    }
    let s1 = m.stats();
    let calls = s1.manager_calls - s0.manager_calls;
    let spent = s1.manager_time - s0.manager_time;
    let avg_fault_us = if calls == 0 {
        0.0
    } else {
        spent.as_micros() as f64 / calls as f64
    };

    let k = m.kernel_stats();
    let demotions = m
        .manager(id)
        .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
        .map(|mgr| mgr.manager_stats().demotions)
        .unwrap_or(0);

    // Couple the measured fault time to end-to-end DBMS throughput:
    // the paging strategy pays `avg_fault_us` per index fault.
    let mut cfg = DbmsConfig::quick(IndexStrategy::Paging);
    cfg.fault_delay = Micros::new((avg_fault_us.round() as u64).max(1));
    let dbms_avg_ms = epcm_dbms::engine::run(&cfg).average_ms();
    let dbms_tps = if dbms_avg_ms > 0.0 {
        1e3 / dbms_avg_ms
    } else {
        0.0
    };

    TierPoint {
        layout,
        avg_fault_us,
        demotions,
        tier_migrations: k.tier_migrations,
        slow_accesses: k.slow_accesses,
        zram_accesses: k.zram_accesses,
        dbms_avg_ms,
        dbms_tps,
    }
}

/// Measures every sweep point for `requested`, fanning points across
/// the pool; results come back in declared order.
pub fn results_with(pool: &ScenarioPool, requested: TierLayout) -> Vec<TierPoint> {
    pool.map(sweep_points(requested), measure_point)
}

/// Renders the sweep as an aligned text table.
pub fn render(points: &[TierPoint]) -> String {
    let mut out = String::from(
        "\n=== Tiered memory sweep ===\n\
         tiers                          fault_us  demote  migrate  slow_acc  zram_acc  dbms_ms     tps\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<30} {:>8.1} {:>7} {:>8} {:>9} {:>9} {:>8.2} {:>7.1}\n",
            p.layout.to_string(),
            p.avg_fault_us,
            p.demotions,
            p.tier_migrations,
            p.slow_accesses,
            p.zram_accesses,
            p.dbms_avg_ms,
            p.dbms_tps,
        ));
    }
    out
}

/// The sweep as a machine-readable JSON document (`BENCH_tiers.json`).
pub fn tiers_json(requested: TierLayout, points: &[TierPoint]) -> String {
    let mut arr = JsonArray::new();
    for p in points {
        arr.push_raw(
            JsonObject::new()
                .string("tiers", &p.layout.to_string())
                .u64("dram", p.layout.count(MemTier::Dram))
                .u64("slow", p.layout.count(MemTier::SlowMem))
                .u64("zram", p.layout.count(MemTier::CompressedRam))
                .f64("avg_fault_us", p.avg_fault_us)
                .u64("demotions", p.demotions)
                .u64("tier_migrations", p.tier_migrations)
                .u64("slow_accesses", p.slow_accesses)
                .u64("zram_accesses", p.zram_accesses)
                .f64("dbms_avg_ms", p.dbms_avg_ms)
                .f64("dbms_tps", p.dbms_tps)
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "tiers")
        .string("requested", &requested.to_string())
        .raw("points", arr.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_cover_request_and_degenerate() {
        let req = TierLayout::new(64, 256, 64);
        let points = sweep_points(req);
        assert_eq!(points[0], req);
        assert!(points.contains(&TierLayout::dram_only(384)));
        assert!(points.len() >= 4);
        for p in &points {
            assert_eq!(p.total(), 384, "every point spends the same frames");
        }
    }

    #[test]
    fn dram_only_request_dedups() {
        let req = TierLayout::dram_only(128);
        let points = sweep_points(req);
        assert_eq!(points[0], req);
        assert_eq!(
            points.iter().filter(|p| p.is_dram_only()).count(),
            1,
            "the degenerate split appears once"
        );
    }

    #[test]
    fn tiered_point_demotes_and_pays_tier_latency() {
        let p = measure_point(TierLayout::new(32, 64, 32));
        assert!(p.avg_fault_us > 0.0);
        assert!(p.tier_migrations > 0, "demotion exchanges frames");
        assert!(p.demotions > 0, "the clock's demotion stage ran");
        assert!(p.slow_accesses > 0, "slow-tier latency was charged");
    }

    #[test]
    fn flat_point_never_migrates() {
        let p = measure_point(TierLayout::dram_only(128));
        assert_eq!(p.tier_migrations, 0);
        assert_eq!(p.demotions, 0);
        assert_eq!(p.slow_accesses + p.zram_accesses, 0);
    }

    #[test]
    fn json_is_stable_and_lists_every_point() {
        let req = TierLayout::new(16, 32, 16);
        let points = vec![TierPoint {
            layout: req,
            avg_fault_us: 12.5,
            demotions: 3,
            tier_migrations: 4,
            slow_accesses: 5,
            zram_accesses: 6,
            dbms_avg_ms: 7.25,
            dbms_tps: 137.9,
        }];
        let json = tiers_json(req, &points);
        assert!(json.contains("\"bench\":\"tiers\""));
        assert!(json.contains("\"requested\":\"dram:16,slow:32,zram:16\""));
        assert!(json.contains("\"avg_fault_us\":12.5"));
        assert!(json.contains("\"demotions\":3"));
    }
}
