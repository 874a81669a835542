//! Writeback ablation: synchronous vs. asynchronous laundry cleaning
//! on the Table 2 applications, emitted as `BENCH_writeback.json`.
//!
//! Each point boots a deliberately frame-starved machine so the default
//! manager's clock must evict dirty heap pages throughout the run, then
//! runs one Table 2 application with dirty victims cleaned either
//! inline (`sync`) or through the [`epcm_sim::writeback`] pipeline
//! (`async` at a given window). The asynchronous pipeline lands the
//! page bytes on the store at eviction time and defers only the disk
//! *time* to the scheduled completion, so the two modes bill exactly
//! the same total I/O — the table shows the fault-path time on dirty
//! victims dropping to zero while `billed_io_us` stays integer-equal.
//!
//! Every point owns its whole machine, so points fan out over the
//! [`ScenarioPool`] and the report is byte-identical for any worker
//! count (pinned by `tests/scenarios.rs`).

use epcm_managers::default_manager::DefaultSegmentManager;
use epcm_managers::{DefaultManagerConfig, Machine, ManagerMode};
use epcm_trace::json::{JsonArray, JsonObject};
use epcm_workloads::apps::table2_apps;
use epcm_workloads::runner::run_vpp_app;
use epcm_workloads::AppSpec;

use crate::pool::ScenarioPool;

/// Frame budget of the ablation machine — small enough that every
/// application overcommits it and the clock evicts dirty pages.
const ABLATION_FRAMES: usize = 96;

/// Writeback windows measured in asynchronous mode. Window 1 is the
/// strictest equality point (one reservation outstanding); the wider
/// window shows the pipeline actually overlapping completions.
const ASYNC_WINDOWS: &[usize] = &[1, 4];

/// How one point cleans its dirty victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackMode {
    /// Disk time charged inline on the fault path (the seed behaviour).
    Sync,
    /// Disk time billed at the scheduled completion, with at most
    /// `window` reservations outstanding.
    Async {
        /// Maximum writebacks in flight at once.
        window: usize,
    },
}

impl WritebackMode {
    /// Stable label used in the table and the JSON document.
    pub fn label(&self) -> String {
        match self {
            WritebackMode::Sync => "sync".to_string(),
            WritebackMode::Async { window } => format!("async/w{window}"),
        }
    }

    fn window(&self) -> usize {
        match self {
            WritebackMode::Sync => 0,
            WritebackMode::Async { window } => *window,
        }
    }
}

/// One measured ablation point: one application under one mode.
#[derive(Debug, Clone)]
pub struct WritebackPoint {
    /// Application name ("diff", "uncompress", "latex").
    pub app: String,
    /// Cleaning mode this point ran with.
    pub mode: WritebackMode,
    /// Frames the machine was booted with.
    pub frames: u64,
    /// Elapsed virtual time of the run (µs).
    pub elapsed_us: u64,
    /// Page faults serviced.
    pub faults: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Kernel time spent on the fault path cleaning dirty victims (µs).
    pub dirty_victim_us: u64,
    /// Total disk time billed for writebacks, whenever charged (µs).
    pub billed_io_us: u64,
    /// Times a consumer had to wait for an in-flight writeback.
    pub stalls: u64,
    /// High-water mark of concurrently issued writebacks.
    pub inflight_peak: u64,
}

/// The full point list: every Table 2 application crossed with sync
/// plus each asynchronous window, in declared order.
pub fn sweep_points() -> Vec<(AppSpec, WritebackMode)> {
    let mut points = Vec::new();
    for (spec, _paper) in table2_apps() {
        points.push((spec.clone(), WritebackMode::Sync));
        for &window in ASYNC_WINDOWS {
            points.push((spec.clone(), WritebackMode::Async { window }));
        }
    }
    points
}

/// Runs one application under one cleaning mode on a frame-starved
/// machine and measures it.
pub fn measure_point(spec: &AppSpec, mode: WritebackMode) -> WritebackPoint {
    let mut config = DefaultManagerConfig {
        // A small pool keeps the machine under pressure without the
        // default 64-frame refill swallowing most of the budget.
        target_free: 16,
        low_water: 4,
        refill_batch: 16,
        ..DefaultManagerConfig::default()
    };
    if let WritebackMode::Async { window } = mode {
        config.async_writeback = true;
        config.writeback_window = window;
        config.writeback_servers = 1;
    }
    let mut m = Machine::new(ABLATION_FRAMES);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        config,
    )));
    m.set_default_manager(id);
    let report = run_vpp_app(spec, &mut m).expect("ablation run");
    // Drain the pipeline so completed == submitted and the billing
    // totals are final before we read them.
    let (wb, writebacks, peak) = m
        .with_manager(id, |mgr, env| {
            let d = mgr
                .as_any_mut()
                .downcast_mut::<DefaultSegmentManager>()
                .expect("default manager");
            d.flush_writebacks(env);
            Ok((
                d.writeback_stats(),
                d.manager_stats().writebacks,
                d.writeback_inflight_peak(),
            ))
        })
        .expect("flush writebacks");
    WritebackPoint {
        app: spec.name.clone(),
        mode,
        frames: ABLATION_FRAMES as u64,
        elapsed_us: report.elapsed.as_micros(),
        faults: report.faults,
        writebacks,
        dirty_victim_us: wb.dirty_victim_us,
        billed_io_us: wb.billed_us,
        stalls: wb.stalls,
        inflight_peak: peak,
    }
}

/// Measures every point, fanning them across the pool; results come
/// back in declared order.
pub fn results_with(pool: &ScenarioPool) -> Vec<WritebackPoint> {
    pool.map(sweep_points(), |(spec, mode)| measure_point(&spec, mode))
}

/// Renders the ablation as an aligned text table.
pub fn render(points: &[WritebackPoint]) -> String {
    let mut out = String::from(
        "\n=== Writeback ablation (sync vs. async laundry) ===\n\
         app         mode      elapsed_us   faults  writeback  victim_us  billed_us  stalls  peak\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<11} {:<9} {:>10} {:>8} {:>10} {:>10} {:>10} {:>7} {:>5}\n",
            p.app,
            p.mode.label(),
            p.elapsed_us,
            p.faults,
            p.writebacks,
            p.dirty_victim_us,
            p.billed_io_us,
            p.stalls,
            p.inflight_peak,
        ));
    }
    out
}

/// The ablation as a machine-readable JSON document
/// (`BENCH_writeback.json`).
pub fn writeback_json(points: &[WritebackPoint]) -> String {
    let mut arr = JsonArray::new();
    for p in points {
        arr.push_raw(
            JsonObject::new()
                .string("app", &p.app)
                .string("mode", &p.mode.label())
                .u64("window", p.mode.window() as u64)
                .u64("frames", p.frames)
                .u64("elapsed_us", p.elapsed_us)
                .u64("faults", p.faults)
                .u64("writebacks", p.writebacks)
                .u64("dirty_victim_us", p.dirty_victim_us)
                .u64("billed_io_us", p.billed_io_us)
                .u64("stalls", p.stalls)
                .u64("inflight_peak", p.inflight_peak)
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "writeback")
        .raw("points", arr.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_app_in_both_modes() {
        let points = sweep_points();
        assert_eq!(points.len(), 3 * (1 + ASYNC_WINDOWS.len()));
        for chunk in points.chunks(1 + ASYNC_WINDOWS.len()) {
            assert_eq!(chunk[0].1, WritebackMode::Sync);
            assert!(chunk.iter().all(|(spec, _)| spec.name == chunk[0].0.name));
        }
    }

    #[test]
    fn async_bills_exactly_like_sync_and_clears_the_fault_path() {
        for (spec, _paper) in table2_apps() {
            let sync = measure_point(&spec, WritebackMode::Sync);
            let asy = measure_point(&spec, WritebackMode::Async { window: 1 });
            assert!(sync.writebacks > 0, "{}: machine not starved", spec.name);
            assert!(sync.dirty_victim_us > 0, "{}: sync pays inline", spec.name);
            assert_eq!(
                sync.billed_io_us, asy.billed_io_us,
                "{}: total billed I/O must match to the microsecond",
                spec.name
            );
            assert_eq!(
                sync.writebacks, asy.writebacks,
                "{}: same victims",
                spec.name
            );
            assert_eq!(
                asy.dirty_victim_us, 0,
                "{}: async fault path charges no writeback time",
                spec.name
            );
        }
    }

    #[test]
    fn wider_window_overlaps_completions() {
        let (spec, _paper) = &table2_apps()[0];
        let asy = measure_point(spec, WritebackMode::Async { window: 4 });
        assert!(asy.inflight_peak >= 1);
        assert_eq!(
            asy.billed_io_us,
            measure_point(spec, WritebackMode::Sync).billed_io_us,
            "billing equality holds at any window"
        );
    }

    #[test]
    fn json_is_stable_and_lists_every_point() {
        let points = vec![WritebackPoint {
            app: "diff".into(),
            mode: WritebackMode::Async { window: 4 },
            frames: 96,
            elapsed_us: 123,
            faults: 45,
            writebacks: 6,
            dirty_victim_us: 0,
            billed_io_us: 789,
            stalls: 1,
            inflight_peak: 3,
        }];
        let json = writeback_json(&points);
        assert!(json.contains("\"bench\":\"writeback\""));
        assert!(json.contains("\"mode\":\"async/w4\""));
        assert!(json.contains("\"billed_io_us\":789"));
        assert!(json.contains("\"dirty_victim_us\":0"));
    }
}
