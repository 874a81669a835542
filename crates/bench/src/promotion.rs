//! Hot-page promotion ablation (`--promotion`), emitted as
//! `BENCH_promotion.json`.
//!
//! The demotion ladder alone is a ratchet: once an overcommitted warm-up
//! strands a page on a SlowMem or CompressedRam frame, nothing moves it
//! back up, and every steady-state reference keeps paying the tier
//! latency forever. This sweep runs the tiers workload shape — a hot
//! set re-referenced between cold scans — twice per tier split, with
//! the default manager's promotion stage off and on, and measures the
//! virtual time of one steady-state hot pass. With promotion on, the
//! manager's heat tracker (fault-time re-references, sampling-window
//! hits and writeback completions) pulls the hot set back into DRAM
//! via `MigrateFrame` exchanges, so the measured pass must come out
//! strictly cheaper; the off run is the byte-identical pre-promotion
//! baseline.
//!
//! Every point owns its whole machine, so points fan out over the
//! [`ScenarioPool`] and the report is byte-identical for any worker
//! count and shard split (pinned by `tests/scenarios.rs`).

use epcm_core::tier::{MemTier, TierLayout};
use epcm_core::types::{AccessKind, PageNumber, SegmentKind};
use epcm_managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager, PromotionStats};
use epcm_managers::{Machine, ManagerMode};
use epcm_trace::json::{JsonArray, JsonObject};

use crate::pool::ScenarioPool;

/// Rounds of hot-pass + tick before the measured pass — enough for the
/// sampling cursor to lap the segment, heat to cross the threshold and
/// promotions to reach steady state.
const WARM_ROUNDS: u64 = 16;

/// Per-tick promotion budget of the promotion-on runs.
const PROMOTION_BUDGET: u64 = 16;

/// Sampling batch shared by both runs: resident re-references only
/// become visible (to the paper's sampling machinery and to the heat
/// tracker) through protection faults, so both arms pay the same
/// sampling overhead and the tier latency is the only difference.
const SAMPLE_BATCH: u64 = 128;

/// One measured arm: a tier split with promotion off or on.
#[derive(Debug, Clone)]
pub struct PromotionPoint {
    /// The tier split this point ran with.
    pub layout: TierLayout,
    /// Whether the manager's promotion stage was enabled.
    pub promotion: bool,
    /// Virtual time of the measured steady-state hot pass (µs).
    pub hot_pass_us: u64,
    /// Hot-set pages resident in DRAM when the measured pass started.
    pub hot_in_dram: u64,
    /// Pages the manager promoted over the whole run.
    pub promotions: u64,
    /// Pages the manager demoted over the whole run.
    pub demotions: u64,
    /// Kernel promotion-direction `MigrateFrame` exchanges.
    pub tier_promotions: u64,
    /// References that paid the SlowMem latency.
    pub slow_accesses: u64,
    /// References that paid the CompressedRam latency.
    pub zram_accesses: u64,
    /// Heat events the promotion tracker accumulated.
    pub heat_events: u64,
}

/// One off/on pair over the same tier split.
#[derive(Debug, Clone)]
pub struct PromotionPair {
    /// The promotion-off baseline.
    pub off: PromotionPoint,
    /// The promotion-on arm.
    pub on: PromotionPoint,
}

impl PromotionPair {
    /// Steady-state speedup: off-pass time over on-pass time, with the
    /// on-pass clamped to one microsecond so a free pass (the whole hot
    /// set in DRAM) yields a large finite ratio instead of a division
    /// by zero.
    pub fn improvement_ratio(&self) -> f64 {
        self.off.hot_pass_us as f64 / self.on.hot_pass_us.max(1) as f64
    }
}

/// The tier splits measured: the requested layout plus a deeper-slow
/// variant over the same total, skipping any degenerate single-tier
/// split (promotion is a no-op without a lower tier to promote from).
pub fn sweep_points(requested: TierLayout) -> Vec<TierLayout> {
    let total = requested.total();
    let mut points: Vec<TierLayout> = Vec::new();
    let mut push = |layout: TierLayout| {
        if !layout.is_dram_only() && !points.contains(&layout) {
            points.push(layout);
        }
    };
    push(requested);
    // A DRAM-starved split: an eighth of the pool up top, the rest 4:1
    // slow:zram — the shape where stranded hot pages hurt the most.
    let dram = (total / 8).max(1);
    let rest = total - dram;
    let slow = rest * 4 / 5;
    push(TierLayout::new(dram, slow, rest - slow));
    points
}

/// Runs the fixed workload on one tier split with promotion off or on.
pub fn measure_point(layout: TierLayout, promotion: bool) -> PromotionPoint {
    let total = layout.total();
    let mut m = Machine::builder(total as usize).tiers(layout).build();
    let cfg = DefaultManagerConfig {
        // A small free-pool target so the whole working set stays
        // resident: the dynamics under test are tier placement, not
        // eviction churn.
        target_free: 8,
        low_water: 2,
        refill_batch: 8,
        // One page per protection-restore batch: every hot page's
        // sampling re-reference is observed individually, so the heat
        // ledger ranks the whole hot set, not just the batch leader.
        protection_batch: 1,
        sample_batch: SAMPLE_BATCH,
        promotion_budget: if promotion { PROMOTION_BUDGET } else { 0 },
        ..DefaultManagerConfig::default()
    };
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        cfg,
    )));
    m.set_default_manager(id);

    // The working set fits in memory (slack left for the free pool),
    // and the cold pages are written FIRST: frames hand out fastest
    // tier first, so the hot set lands stranded on the slowest frames —
    // exactly the ratchet position the demotion-only ladder can never
    // recover from.
    let slack = 16.min(total / 4).max(1);
    let pages = total - slack;
    let hot = (layout.count(MemTier::Dram) / 2).max(8).min(pages / 2);
    let seg = m
        .create_segment(SegmentKind::Anonymous, pages)
        .expect("sweep segment");
    for p in hot..pages {
        m.touch(seg, p, AccessKind::Write).expect("cold warm write");
    }
    for p in 0..hot {
        m.touch(seg, p, AccessKind::Write).expect("hot warm write");
    }
    let _ = m.tick();

    // Steady state: only the hot set is re-referenced. Its residency in
    // the slow tiers is visible to the manager through sampling faults;
    // with promotion on, the accumulated heat pulls it into DRAM.
    for _round in 0..WARM_ROUNDS {
        for p in 0..hot {
            m.touch(seg, p, AccessKind::Read).expect("hot read");
        }
        let _ = m.tick();
    }

    // Absorb any sampling protections left by the last tick so the
    // measured pass pays pure tier-access charges in both arms.
    for p in 0..hot {
        m.touch(seg, p, AccessKind::Read).expect("settling read");
    }

    // Measured pass: one sweep of the hot set with no tick in between,
    // so the cost is purely what residency the ladder converged to.
    let hot_in_dram = {
        let kernel = m.kernel();
        let tiers = *kernel.tiers();
        kernel.segment(seg).map_or(0, |segment| {
            (0..hot)
                .filter(|&p| {
                    segment
                        .entry(PageNumber(p))
                        .is_some_and(|e| tiers.tier_of(e.frame) == MemTier::Dram)
                })
                .count() as u64
        })
    };
    let t0 = m.now();
    for p in 0..hot {
        m.touch(seg, p, AccessKind::Read).expect("measured read");
    }
    let hot_pass_us = m.now().duration_since(t0).as_micros();

    let k = m.kernel_stats();
    let (demotions, promotions, promo_stats) = m
        .manager(id)
        .and_then(|mgr| mgr.as_any().downcast_ref::<DefaultSegmentManager>())
        .map(|mgr| {
            let s = mgr.manager_stats();
            (s.demotions, s.promotions, mgr.promotion_stats())
        })
        .unwrap_or((0, 0, PromotionStats::default()));

    PromotionPoint {
        layout,
        promotion,
        hot_pass_us,
        hot_in_dram,
        promotions,
        demotions,
        tier_promotions: k.tier_promotions,
        slow_accesses: k.slow_accesses,
        zram_accesses: k.zram_accesses,
        heat_events: promo_stats.heat_events,
    }
}

/// Measures the off/on pair for every sweep split, fanning all arms
/// across the pool; pairs come back in declared order.
pub fn results_with(pool: &ScenarioPool, requested: TierLayout) -> Vec<PromotionPair> {
    let layouts = sweep_points(requested);
    let mut arms: Vec<(TierLayout, bool)> = Vec::new();
    for l in &layouts {
        arms.push((*l, false));
        arms.push((*l, true));
    }
    let points = pool.map(arms, |(layout, promotion)| measure_point(layout, promotion));
    points
        .chunks(2)
        .map(|pair| PromotionPair {
            off: pair[0].clone(),
            on: pair[1].clone(),
        })
        .collect()
}

/// True when every pair's promotion-on hot pass is strictly cheaper
/// than its off baseline — one of the promotion section's gates.
pub fn promotion_wins(pairs: &[PromotionPair]) -> bool {
    pairs
        .iter()
        .all(|p| p.on.hot_pass_us < p.off.hot_pass_us && p.on.promotions > 0)
}

/// The smallest improvement ratio across the sweep.
pub fn min_improvement(pairs: &[PromotionPair]) -> f64 {
    pairs
        .iter()
        .map(PromotionPair::improvement_ratio)
        .fold(f64::INFINITY, f64::min)
}

/// Renders the sweep as an aligned text table.
pub fn render(pairs: &[PromotionPair]) -> String {
    let mut out = String::from(
        "\n=== Hot-page promotion ablation ===\n\
         tiers                          promo  pass_us  hot_dram  promoted  demoted  slow_acc  zram_acc\n",
    );
    for pair in pairs {
        for p in [&pair.off, &pair.on] {
            out.push_str(&format!(
                "{:<30} {:>5} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}\n",
                p.layout.to_string(),
                if p.promotion { "on" } else { "off" },
                p.hot_pass_us,
                p.hot_in_dram,
                p.promotions,
                p.demotions,
                p.slow_accesses,
                p.zram_accesses,
            ));
        }
        out.push_str(&format!(
            "{:<30} improvement {:.2}x\n",
            pair.off.layout.to_string(),
            pair.improvement_ratio()
        ));
    }
    out.push_str(&format!(
        "promotion wins (on strictly cheaper, promotions fired): {}\n",
        if promotion_wins(pairs) {
            "ok"
        } else {
            "VIOLATED"
        }
    ));
    out
}

fn point_json(p: &PromotionPoint) -> String {
    JsonObject::new()
        .string("tiers", &p.layout.to_string())
        .bool("promotion", p.promotion)
        .u64("hot_pass_us", p.hot_pass_us)
        .u64("hot_in_dram", p.hot_in_dram)
        .u64("promotions", p.promotions)
        .u64("demotions", p.demotions)
        .u64("tier_promotions", p.tier_promotions)
        .u64("slow_accesses", p.slow_accesses)
        .u64("zram_accesses", p.zram_accesses)
        .u64("heat_events", p.heat_events)
        .finish()
}

/// The sweep as a machine-readable JSON document
/// (`BENCH_promotion.json`). Carries no worker count: the bytes are a
/// pure function of the requested layout.
pub fn promotion_json(requested: TierLayout, pairs: &[PromotionPair]) -> String {
    let mut arr = JsonArray::new();
    for pair in pairs {
        arr.push_raw(
            JsonObject::new()
                .string("tiers", &pair.off.layout.to_string())
                .raw("off", point_json(&pair.off))
                .raw("on", point_json(&pair.on))
                .f64("improvement_ratio", pair.improvement_ratio())
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "promotion")
        .string("requested", &requested.to_string())
        .raw("pairs", arr.finish())
        .f64("min_improvement", min_improvement(pairs))
        .bool("promotion_wins", promotion_wins(pairs))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_skips_degenerate_splits() {
        let points = sweep_points(TierLayout::new(64, 256, 64));
        assert!(!points.is_empty());
        assert!(points.iter().all(|l| !l.is_dram_only()));
        assert_eq!(points[0], TierLayout::new(64, 256, 64));
        // A dram-only request contributes nothing itself but the
        // derived DRAM-starved split still runs.
        let fallback = sweep_points(TierLayout::dram_only(384));
        assert!(!fallback.is_empty());
        assert!(fallback.iter().all(|l| !l.is_dram_only()));
    }

    #[test]
    fn promotion_off_point_never_promotes() {
        let p = measure_point(TierLayout::new(32, 64, 32), false);
        assert!(!p.promotion);
        assert_eq!(p.promotions, 0);
        assert_eq!(p.tier_promotions, 0);
        assert_eq!(p.heat_events, 0);
    }

    #[test]
    fn promotion_on_beats_off_at_steady_state() {
        let layout = TierLayout::new(32, 64, 32);
        let off = measure_point(layout, false);
        let on = measure_point(layout, true);
        assert!(on.promotions > 0, "promotion stage never fired");
        assert!(on.heat_events > 0, "heat tracker saw no re-references");
        assert!(
            on.hot_pass_us < off.hot_pass_us,
            "promotion-on hot pass ({}) not cheaper than off ({})",
            on.hot_pass_us,
            off.hot_pass_us
        );
        assert!(on.hot_in_dram >= off.hot_in_dram);
    }

    #[test]
    fn json_reports_pairs_and_gate_fields() {
        let layout = TierLayout::new(16, 32, 16);
        let point = |promotion: bool, us: u64| PromotionPoint {
            layout,
            promotion,
            hot_pass_us: us,
            hot_in_dram: 8,
            promotions: u64::from(promotion),
            demotions: 2,
            tier_promotions: u64::from(promotion),
            slow_accesses: 5,
            zram_accesses: 1,
            heat_events: 9,
        };
        let pairs = vec![PromotionPair {
            off: point(false, 200),
            on: point(true, 100),
        }];
        let json = promotion_json(layout, &pairs);
        assert!(json.contains("\"bench\":\"promotion\""));
        assert!(json.contains("\"improvement_ratio\":2"));
        assert!(json.contains("\"promotion_wins\":true"));
        assert!(promotion_wins(&pairs));
        assert!((min_improvement(&pairs) - 2.0).abs() < 1e-9);
        let text = render(&pairs);
        assert!(text.contains("improvement 2.00x"));
    }
}
