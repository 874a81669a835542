//! Crossing-count collapse when the manager coalesces its batch sites
//! onto one ring doorbell, emitted as `BENCH_ring.json`
//! (`reproduce --batched-abi`).
//!
//! The headline row measures one protection-restore fault with reference
//! sampling on: the default manager restores a 16-page run, which costs
//! 18 modeled protection crossings with one doorbell per op (2 dispatch
//! legs + 16 `modify_page_flags` ops, the paper's synchronous costs) but
//! only 3 when coalesced (2 dispatch legs + 1 doorbell) — a 6x collapse,
//! ahead of the 4x the acceptance bar asks for. The remaining sections
//! rerun Tables 2–4 in both modes: the application runs issue single-op
//! batches either way, so every figure reproduces the tables to the
//! microsecond; the Table 4 DBMS queueing model sits above the manager
//! ABI entirely and is reported once as ABI-independent.
//!
//! Every point owns its whole machine, so points fan out over the
//! [`ScenarioPool`] and the report is byte-identical for any worker or
//! shard count (pinned by `tests/scenarios.rs`).

use epcm_core::types::{AccessKind, SegmentKind};
use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_dbms::engine::run as run_dbms;
use epcm_managers::default_manager::DefaultSegmentManager;
use epcm_managers::{DefaultManagerConfig, Machine, ManagerMode};
use epcm_trace::json::{JsonArray, JsonObject};
use epcm_workloads::apps::table2_apps;
use epcm_workloads::runner::{run_vpp_app, PAPER_FRAMES};
use epcm_workloads::AppSpec;

use crate::pool::ScenarioPool;

/// Frames in the collapse microbenchmark machine — ample, so the only
/// kernel traffic after warm-up is the sampling sweep and the restore.
const COLLAPSE_FRAMES: usize = 256;

/// Resident pages the collapse point warms before sampling revokes them.
const COLLAPSE_PAGES: u64 = 32;

/// Stable mode label for a point.
fn mode_label(batched: bool) -> &'static str {
    if batched {
        "batched"
    } else {
        "direct"
    }
}

/// The Table-1-style headline: what one protection-restore fault costs.
#[derive(Debug, Clone)]
pub struct CollapsePoint {
    /// `"direct"` or `"batched"`.
    pub mode: String,
    /// Pages whose protection the fault restored.
    pub restored_pages: u64,
    /// Modeled protection crossings charged to the fault.
    pub crossings: u64,
    /// Virtual time the fault took (µs).
    pub fault_us: u64,
    /// Ring doorbells rung during the fault (one per op in direct mode).
    pub ring_batches: u64,
    /// Operations that rode the ring during the fault.
    pub ring_ops: u64,
}

/// One Table 2/3 application rerun on one ABI.
#[derive(Debug, Clone)]
pub struct RingAppPoint {
    /// Application name ("diff", "uncompress", "latex").
    pub app: String,
    /// `"direct"` or `"batched"`.
    pub mode: String,
    /// Elapsed virtual time of the measured window (µs).
    pub elapsed_us: u64,
    /// Page faults serviced.
    pub faults: u64,
    /// Modeled protection crossings over the machine's lifetime.
    pub crossings: u64,
    /// Ring doorbells rung over the machine's lifetime.
    pub ring_batches: u64,
    /// Operations that rode the ring.
    pub ring_ops: u64,
}

/// One Table 4 strategy at quick scale. The DBMS model never calls the
/// manager ABI, so the batched path reproduces these rows verbatim; they
/// are measured once and tagged ABI-independent.
#[derive(Debug, Clone)]
pub struct RingDbmsPoint {
    /// Index strategy label.
    pub strategy: String,
    /// Average transaction response (ms).
    pub average_ms: f64,
    /// Worst-case transaction response (ms).
    pub worst_ms: f64,
}

/// The full ring report.
#[derive(Debug, Clone)]
pub struct RingReport {
    /// Headline collapse rows, direct then batched.
    pub collapse: Vec<CollapsePoint>,
    /// Table 2/3 application reruns, direct/batched per app.
    pub apps: Vec<RingAppPoint>,
    /// Table 4 quick rows (ABI-independent).
    pub dbms: Vec<RingDbmsPoint>,
}

impl RingReport {
    /// Crossing-collapse factor of the headline row: direct crossings
    /// over batched crossings for the same restored run.
    pub fn collapse_factor(&self) -> f64 {
        let direct = self
            .collapse
            .iter()
            .find(|p| p.mode == "direct")
            .map_or(0, |p| p.crossings);
        let batched = self
            .collapse
            .iter()
            .find(|p| p.mode == "batched")
            .map_or(1, |p| p.crossings.max(1));
        direct as f64 / batched as f64
    }
}

/// Measures one protection-restore fault under one ABI: warm a run of
/// pages, let the sampling sweep revoke them, then touch the first page
/// and charge the whole 16-page restore to a single fault.
pub fn measure_collapse(batched: bool) -> CollapsePoint {
    let config = DefaultManagerConfig {
        sample_batch: COLLAPSE_PAGES * 2,
        batched_abi: batched,
        ..DefaultManagerConfig::default()
    };
    let restore = config.protection_batch;
    let mut m = Machine::new(COLLAPSE_FRAMES);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        config,
    )));
    m.set_default_manager(id);
    let seg = m
        .create_segment(SegmentKind::Anonymous, COLLAPSE_PAGES * 2)
        .expect("collapse segment");
    for p in 0..COLLAPSE_PAGES {
        m.touch(seg, p, AccessKind::Write).expect("warm page");
    }
    // The sweep revokes protection on every warmed page.
    m.tick().expect("sampling sweep");
    let k0 = m.kernel_stats();
    let t0 = m.now();
    // One protection fault restores a `protection_batch`-page run.
    m.touch(seg, 0, AccessKind::Read).expect("restore fault");
    let k1 = m.kernel_stats();
    CollapsePoint {
        mode: mode_label(batched).to_string(),
        restored_pages: restore,
        crossings: k1.crossings - k0.crossings,
        fault_us: m.now().duration_since(t0).as_micros(),
        ring_batches: k1.ring_batches - k0.ring_batches,
        ring_ops: k1.ring_ops - k0.ring_ops,
    }
}

/// Reruns one Table 2 application at paper scale under one ABI.
pub fn measure_app(spec: &AppSpec, batched: bool) -> RingAppPoint {
    let config = DefaultManagerConfig {
        batched_abi: batched,
        ..DefaultManagerConfig::default()
    };
    let mut m = Machine::new(PAPER_FRAMES);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        config,
    )));
    m.set_default_manager(id);
    let report = run_vpp_app(spec, &mut m).expect("ring app rerun");
    let k = m.kernel_stats();
    RingAppPoint {
        app: spec.name.clone(),
        mode: mode_label(batched).to_string(),
        elapsed_us: report.elapsed.as_micros(),
        faults: report.faults,
        crossings: k.crossings,
        ring_batches: k.ring_batches,
        ring_ops: k.ring_ops,
    }
}

/// Work items for the pool: collapse points, app reruns, DBMS rows.
enum RingJob {
    Collapse(bool),
    App(AppSpec, bool),
    Dbms(IndexStrategy),
}

enum RingResult {
    Collapse(CollapsePoint),
    App(RingAppPoint),
    Dbms(RingDbmsPoint),
}

fn jobs() -> Vec<RingJob> {
    let mut jobs = vec![RingJob::Collapse(false), RingJob::Collapse(true)];
    for (spec, _paper) in table2_apps() {
        jobs.push(RingJob::App(spec.clone(), false));
        jobs.push(RingJob::App(spec, true));
    }
    for s in IndexStrategy::all() {
        jobs.push(RingJob::Dbms(s));
    }
    jobs
}

/// Measures the whole report, fanning points across the pool; section
/// order is fixed regardless of worker count.
pub fn results_with(pool: &ScenarioPool) -> RingReport {
    let results = pool.map(jobs(), |job| match job {
        RingJob::Collapse(batched) => RingResult::Collapse(measure_collapse(batched)),
        RingJob::App(spec, batched) => RingResult::App(measure_app(&spec, batched)),
        RingJob::Dbms(s) => {
            let r = run_dbms(&DbmsConfig::quick(s));
            RingResult::Dbms(RingDbmsPoint {
                strategy: s.label().to_string(),
                average_ms: r.average_ms(),
                worst_ms: r.worst_ms(),
            })
        }
    });
    let mut report = RingReport {
        collapse: Vec::new(),
        apps: Vec::new(),
        dbms: Vec::new(),
    };
    for r in results {
        match r {
            RingResult::Collapse(p) => report.collapse.push(p),
            RingResult::App(p) => report.apps.push(p),
            RingResult::Dbms(p) => report.dbms.push(p),
        }
    }
    report
}

/// Renders the report as aligned text tables.
pub fn render(report: &RingReport) -> String {
    let mut out = String::from(
        "\n=== Batched ABI: crossing collapse on one protection-restore fault ===\n\
         mode      restored  crossings  fault_us  ring_batches  ring_ops\n",
    );
    for p in &report.collapse {
        out.push_str(&format!(
            "{:<9} {:>8} {:>10} {:>9} {:>13} {:>9}\n",
            p.mode, p.restored_pages, p.crossings, p.fault_us, p.ring_batches, p.ring_ops,
        ));
    }
    out.push_str(&format!(
        "collapse factor: {:.1}x\n",
        report.collapse_factor()
    ));
    out.push_str(
        "\n=== Tables 2/3 rerun on the batched path (single-op batches are cost-neutral) ===\n\
         app         mode      elapsed_us   faults  crossings  ring_batches  ring_ops\n",
    );
    for p in &report.apps {
        out.push_str(&format!(
            "{:<11} {:<9} {:>10} {:>8} {:>10} {:>13} {:>9}\n",
            p.app, p.mode, p.elapsed_us, p.faults, p.crossings, p.ring_batches, p.ring_ops,
        ));
    }
    out.push_str(
        "\n=== Table 4 quick rerun (DBMS model sits above the manager ABI) ===\n\
         strategy                 avg_ms   worst_ms\n",
    );
    for p in &report.dbms {
        out.push_str(&format!(
            "{:<22} {:>9.1} {:>10.1}\n",
            p.strategy, p.average_ms, p.worst_ms,
        ));
    }
    out
}

/// The report as a machine-readable JSON document (`BENCH_ring.json`).
pub fn ring_json(report: &RingReport) -> String {
    let mut collapse = JsonArray::new();
    for p in &report.collapse {
        collapse.push_raw(
            JsonObject::new()
                .string("mode", &p.mode)
                .u64("restored_pages", p.restored_pages)
                .u64("crossings", p.crossings)
                .u64("fault_us", p.fault_us)
                .u64("ring_batches", p.ring_batches)
                .u64("ring_ops", p.ring_ops)
                .finish(),
        );
    }
    let mut apps = JsonArray::new();
    for p in &report.apps {
        apps.push_raw(
            JsonObject::new()
                .string("app", &p.app)
                .string("mode", &p.mode)
                .u64("elapsed_us", p.elapsed_us)
                .u64("faults", p.faults)
                .u64("crossings", p.crossings)
                .u64("ring_batches", p.ring_batches)
                .u64("ring_ops", p.ring_ops)
                .finish(),
        );
    }
    let mut dbms = JsonArray::new();
    for p in &report.dbms {
        dbms.push_raw(
            JsonObject::new()
                .string("strategy", &p.strategy)
                .f64("average_ms", p.average_ms)
                .f64("worst_ms", p.worst_ms)
                .bool("abi_independent", true)
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "ring")
        .f64("collapse_factor", report.collapse_factor())
        .raw("collapse", collapse.finish())
        .raw("apps", apps.finish())
        .raw("dbms", dbms.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_fault_crossings_collapse_at_least_4x() {
        let direct = measure_collapse(false);
        let batched = measure_collapse(true);
        assert_eq!(direct.restored_pages, batched.restored_pages);
        assert_eq!(direct.ring_ops, direct.restored_pages);
        assert_eq!(direct.ring_batches, direct.ring_ops, "one doorbell per op");
        assert_eq!(batched.ring_batches, 1, "one doorbell for the run");
        assert_eq!(batched.ring_ops, direct.restored_pages);
        assert!(
            direct.crossings >= 4 * batched.crossings,
            "collapse {} -> {} is under 4x",
            direct.crossings,
            batched.crossings
        );
        // 2 dispatch legs + 16 calls vs 2 dispatch legs + 1 doorbell.
        assert_eq!(direct.crossings, 2 + direct.restored_pages);
        assert_eq!(batched.crossings, 3);
        assert!(
            batched.fault_us < direct.fault_us,
            "the doorbell amortises the per-call charge"
        );
    }

    #[test]
    fn batched_app_rerun_is_cost_neutral_and_rides_the_ring() {
        let (spec, _paper) = &table2_apps()[0];
        let direct = measure_app(spec, false);
        let batched = measure_app(spec, true);
        assert_eq!(direct.elapsed_us, batched.elapsed_us);
        assert_eq!(direct.faults, batched.faults);
        assert_eq!(direct.crossings, batched.crossings);
        assert_eq!(direct.ring_batches, direct.ring_ops, "one doorbell per op");
        assert!(batched.ring_ops > 0, "rerun never touched the ring");
        assert_eq!(
            batched.ring_batches, batched.ring_ops,
            "app paths issue single-op batches"
        );
    }

    #[test]
    fn report_sections_are_complete_and_ordered() {
        let report = results_with(&ScenarioPool::serial());
        assert_eq!(report.collapse.len(), 2);
        assert_eq!(report.collapse[0].mode, "direct");
        assert_eq!(report.collapse[1].mode, "batched");
        assert_eq!(report.apps.len(), 6);
        assert_eq!(report.dbms.len(), 4);
        assert!(report.collapse_factor() >= 4.0);
        let json = ring_json(&report);
        assert!(json.contains("\"bench\":\"ring\""));
        assert!(json.contains("\"mode\":\"batched\""));
        assert!(json.contains("\"abi_independent\":true"));
        let text = render(&report);
        assert!(text.contains("collapse factor"));
    }
}
