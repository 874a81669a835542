//! `paper_apps`: the paper's own traffic (Tables 2 and 3). Each round
//! runs diff, uncompress and latex at `PAPER_FRAMES`, on V++ (default
//! manager, server mode) through the benchmark's call-by-call runner and
//! on the Ultrix baseline. UIO- and segment-call-heavy; no memory
//! pressure, ticks, tiers or ring. It has no randomness: the seed is
//! unused.

use std::time::{Duration, Instant};

use epcm_bench::table23::AppResult;
use epcm_core::types::{AccessKind, SegmentKind, BASE_PAGE_SIZE};
use epcm_managers::{Machine, MachineError};
use epcm_workloads::apps::table2_apps;
use epcm_workloads::runner::{run_on_ultrix, run_on_vpp, RunReport, PAPER_FRAMES};
use epcm_workloads::AppSpec;

use crate::probe::{Count, Counters, OpStats, Probe};
use crate::report::Metrics;
use crate::run::{Ctx, RepOut, Scale};
use crate::trace::{Layer, Tracer};

fn rounds(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 50,
        Scale::Tiny => 1,
    }
}

/// Host span key of an application's V++ run.
fn span_key(app: &str) -> &'static str {
    match app {
        "diff" => "apps.diff",
        "uncompress" => "apps.uncompress",
        _ => "apps.latex",
    }
}

/// One V++ run through the probe: the same calls, in the same order, as
/// `epcm_workloads::runner::run_on_vpp`. Returns the report, the set-up
/// time (machine, files and the pre-cache pass) and the window time.
fn run_vpp(
    spec: &AppSpec,
    ops: &mut OpStats,
    counters: &mut Counters,
    mut tracer: Option<&mut Tracer>,
) -> Result<(RunReport, Duration, Duration), MachineError> {
    let setup_start = Instant::now();
    let mut m = Machine::with_default_manager(PAPER_FRAMES);
    let mgr = m.default_manager().expect("with_default_manager sets one");
    for f in &spec.inputs {
        m.store_mut().create(&f.name, f.size as usize);
    }
    m.store_mut().create("output", 0);
    for i in 0..spec.aux_files {
        m.store_mut().create(&format!("aux-{i}"), 4096);
    }
    let page = BASE_PAGE_SIZE as usize;
    let mut warm = Vec::new();
    for f in &spec.inputs {
        let seg = m.open_file(&f.name)?;
        let mut buf = vec![0u8; page];
        let mut off = 0;
        while off < f.size {
            let n = (f.size - off).min(BASE_PAGE_SIZE) as usize;
            m.uio_read(seg, off, &mut buf[..n])?;
            off += BASE_PAGE_SIZE;
        }
        warm.push(seg);
    }
    let setup = setup_start.elapsed();

    let before = Counters::read(&m, mgr);
    let t0 = m.now();
    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.open(span_key(&spec.name), t0.as_micros(), 0);
    }
    {
        let mut p = Probe::new(&mut m, tracer.as_deref_mut(), ops);
        let mut buf = vec![0u8; page];
        for (f, &seg) in spec.inputs.iter().zip(&warm) {
            let mut off = 0;
            while off < f.size {
                let n = (f.size - off).min(BASE_PAGE_SIZE) as usize;
                p.uio_read(seg, off, &mut buf[..n]);
                off += BASE_PAGE_SIZE;
            }
        }
        let out = p.open_file("output");
        let chunk = vec![0x5Au8; page];
        if let Some(out) = out {
            let mut off = 0;
            while off < spec.output_bytes {
                let n = (spec.output_bytes - off).min(BASE_PAGE_SIZE) as usize;
                p.uio_write(out, off, &chunk[..n]);
                off += BASE_PAGE_SIZE;
            }
        }
        let heap = p.create_segment(SegmentKind::Anonymous, spec.heap_pages.max(1));
        if let Some(heap) = heap {
            for pg in 0..spec.heap_pages {
                p.touch(heap, pg, AccessKind::Write);
            }
        }
        for i in 0..spec.aux_files {
            if let Some(seg) = p.open_file(&format!("aux-{i}")) {
                p.close_segment(seg);
            }
        }
        p.compute(spec.compute_vpp);
        for seg in warm.into_iter().chain(out).chain(heap) {
            p.close_segment(seg);
        }
    }
    let window = start.elapsed();
    if let Some(t) = tracer {
        let ns = t.close(Layer::Workloads, m.now().as_micros());
        t.record(span_key(&spec.name), ns);
    }
    let d = Counters::read(&m, mgr) - before;
    *counters += d;
    let report = RunReport {
        name: spec.name.clone(),
        elapsed: m.now().duration_since(t0),
        manager_calls: d[Count::ManagerCalls],
        migrate_calls: d[Count::MgrMigrateCalls],
        faults: d[Count::Faults],
        zero_fills: d[Count::ZeroFills],
        read_ops: d[Count::UioReads],
        write_ops: d[Count::UioWrites],
    };
    Ok((report, setup, window))
}

/// One repetition: `rounds` × three applications × two systems. The
/// first round's reports are the reference every later round must equal.
pub fn rep(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> RepOut {
    let apps = table2_apps();
    let mut ops = OpStats::default();
    let mut counters = Counters::default();
    let mut setup = Duration::ZERO;
    let mut window = Duration::ZERO;
    let mut failed = 0;
    let mut results: Vec<AppResult> = Vec::new();
    if let Some(t) = tracer.as_deref_mut() {
        t.open("rep", 0, 0);
    }
    for round in 0..rounds(ctx.scale) {
        for (i, (spec, paper)) in apps.iter().enumerate() {
            let vpp = match run_vpp(spec, &mut ops, &mut counters, tracer.as_deref_mut()) {
                Ok((report, s, w)) => {
                    setup += s;
                    window += w;
                    report
                }
                Err(e) => {
                    eprintln!("benchmark: {} set-up failed: {e}", spec.name);
                    failed += 1;
                    continue;
                }
            };
            let start = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.open("run_on_ultrix", 0, 0);
            }
            let ultrix = run_on_ultrix(spec, PAPER_FRAMES);
            if let Some(t) = tracer.as_deref_mut() {
                let ns = t.close(Layer::Baseline, ultrix.elapsed.as_micros());
                t.record("baseline.app", ns);
            }
            window += start.elapsed();
            let result = AppResult {
                paper: *paper,
                vpp,
                ultrix,
            };
            if round == 0 {
                results.push(result);
            } else if results.get(i) != Some(&result) {
                eprintln!(
                    "benchmark: {} round {round} differs from round 0",
                    spec.name
                );
                failed += 1;
            }
        }
    }
    if let Some(t) = tracer {
        t.close(Layer::Bench, 0);
    }
    // The call-by-call runner must reproduce the library's own.
    if ctx.first {
        for (spec, _) in &apps {
            let expected = run_on_vpp(spec, PAPER_FRAMES).ok();
            let driven = results.iter().find(|r| r.vpp.name == spec.name);
            if driven.map(|r| &r.vpp) != expected.as_ref() {
                eprintln!(
                    "benchmark: {} call-by-call run disagrees with run_on_vpp",
                    spec.name
                );
                failed += 1;
            }
        }
    }

    let mut exact = Metrics::default();
    let vpp_s: f64 = results.iter().map(|r| r.vpp.elapsed.as_secs_f64()).sum();
    exact.push("virt_elapsed_s", vpp_s, "s");
    ops.metrics(&mut exact);
    let err: f64 = results
        .iter()
        .map(|r| {
            let v = (r.vpp.elapsed.as_secs_f64() - r.paper.vpp_secs).abs() / r.paper.vpp_secs;
            let u =
                (r.ultrix.elapsed.as_secs_f64() - r.paper.ultrix_secs).abs() / r.paper.ultrix_secs;
            v + u
        })
        .sum();
    exact.push("paper_err_pct", 100.0 * err / 6.0, "%");
    counters.metrics(ops.ops, ops.virt_total_us(), ops.tick_virt_us, &mut exact);
    for r in &results {
        let name = &r.vpp.name;
        exact.push(
            format!("apps.{name}.vpp_virt_s"),
            r.vpp.elapsed.as_secs_f64(),
            "s",
        );
        exact.push(
            format!("apps.{name}.ultrix_virt_s"),
            r.ultrix.elapsed.as_secs_f64(),
            "s",
        );
    }
    // Every virtual µs of each V++ run is inside a wrapped call or the
    // compute charge.
    let window_us: u64 = results.iter().map(|r| r.vpp.elapsed.as_micros()).sum();
    let unattributed = u64::from(ops.virt_total_us() != window_us * rounds(ctx.scale));
    RepOut {
        setup,
        window,
        ops: ops.ops,
        failed: failed + ops.errors + unattributed,
        exact,
    }
}
