//! The workloads and the repetition loop that measures them.
//!
//! Every repetition builds its state afresh (the set-up), runs the same
//! seeded work (the window) and checks its own outputs. Host metrics are
//! medians over repetitions; virtual metrics and counts must be equal in
//! every repetition, and the first one's are reported and digested. The
//! traced repetition runs after the untraced ones and must reproduce
//! their virtual metrics too: tracing only observes.

use std::fmt::Display;
use std::time::Duration;

use crate::report::Metrics;
use crate::stats::{median, percentile, ratio};
use crate::trace::{Layer, Span, Tracer};
use crate::{alloc, apps, dbms, economy, host, tiers};

/// Repetitions when no `--seconds` budget is given, and the least made
/// under one.
pub const REPS: usize = 3;

/// Workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small sizes for tests.
    Tiny,
}

/// What one repetition needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Workload sizes.
    pub scale: Scale,
    /// Worker threads of the sharded engine.
    pub shards: u32,
    /// The run's first repetition, which also runs the once-per-run
    /// oracles.
    pub first: bool,
    /// Tier workloads: bump this page's shadow version, so its loads
    /// must fail the oracle.
    pub corrupt_shadow: Option<u64>,
}

#[cfg(test)]
impl Ctx {
    /// A first repetition at tiny scale.
    pub fn tiny(seed: u64) -> Ctx {
        Ctx {
            seed,
            scale: Scale::Tiny,
            shards: economy::SHARDS,
            first: true,
            corrupt_shadow: None,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct RepOut {
    /// Host time building the state and warming it up.
    pub setup: Duration,
    /// Host time of the measured window.
    pub window: Duration,
    /// Ops in the window; each is also an attempt that can fail.
    pub ops: u64,
    /// Failures: errors returned and oracle mismatches.
    pub failed: u64,
    /// Virtual metrics and counts, exact for a given seed.
    pub exact: Metrics,
}

impl RepOut {
    /// A repetition that could not build its state.
    pub fn failed_setup(e: &dyn Display) -> RepOut {
        eprintln!("benchmark: set-up failed: {e}");
        RepOut {
            setup: Duration::ZERO,
            window: Duration::ZERO,
            ops: 0,
            failed: 1,
            exact: Metrics::default(),
        }
    }
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2/3 applications on V++ and Ultrix.
    PaperApps,
    /// Zipf loads on a tiered machine, direct ABI, sync writeback.
    TierZipfRead,
    /// Hot/cold stores and loads, batched ABI, async writeback.
    TierWriteChurn,
    /// The four Table 4 strategies.
    DbmsTable4,
    /// The stress economy on the sharded engine.
    EconomyChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperApps,
        Workload::TierZipfRead,
        Workload::TierWriteChurn,
        Workload::DbmsTable4,
        Workload::EconomyChurn,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperApps => "paper_apps",
            Workload::TierZipfRead => "tier_zipf_read",
            Workload::TierWriteChurn => "tier_write_churn",
            Workload::DbmsTable4 => "dbms_table4",
            Workload::EconomyChurn => "economy_churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn rep(self, ctx: &Ctx, tracer: Option<&mut Tracer>) -> RepOut {
        match self {
            Workload::PaperApps => apps::rep(ctx, tracer),
            Workload::TierZipfRead => tiers::rep(tiers::Mode::ZipfRead, ctx, tracer),
            Workload::TierWriteChurn => tiers::rep(tiers::Mode::WriteChurn, ctx, tracer),
            Workload::DbmsTable4 => dbms::rep(ctx, tracer),
            Workload::EconomyChurn => economy::rep(ctx, tracer),
        }
    }
}

/// How to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Workload sizes.
    pub scale: Scale,
    /// Keep repeating until the windows add up to this many seconds
    /// (and at least [`REPS`] repetitions ran); `None` runs [`REPS`].
    pub seconds: Option<f64>,
    /// Add one traced repetition and the per-layer metrics.
    pub traced: bool,
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Untraced repetitions made.
    pub reps: usize,
    /// Operations and checks attempted over every repetition.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Host-clock end-to-end metrics: medians over repetitions, scaled to
    /// the reference host, and their unscaled values.
    pub host: Metrics,
    /// Virtual metrics and counts of the first repetition.
    pub exact: Metrics,
    /// Host-clock per-layer metrics of the traced repetition.
    pub layers: Metrics,
    /// The traced repetition's sampled spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// FNV-1a of every virtual metric and count.
    pub fn virt_digest(&self) -> u64 {
        self.exact.digest()
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }
}

/// One untraced repetition and the host conditions it ran under.
struct Rep {
    out: RepOut,
    /// Peak heap bytes above those live when it started.
    peak: u64,
    /// How many times slower than the reference host the calibration
    /// loop ran around it.
    slowdown: f64,
}

/// Runs `f` between two calibrations on `threads` threads; returns its
/// result and the host slowdown around it.
fn calibrated<R>(threads: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let before = host::calibrate(threads);
    let r = f();
    let after = host::calibrate(threads);
    (r, (before + after) / 2.0 / host::REFERENCE_S)
}

/// Measures `workload` as `plan` says.
pub fn measure(workload: Workload, plan: &Plan) -> Outcome {
    let ctx = |first| Ctx {
        seed: plan.seed,
        scale: plan.scale,
        shards: economy::SHARDS,
        first,
        corrupt_shadow: None,
    };
    let threads = match workload {
        Workload::EconomyChurn => economy::SHARDS as usize,
        _ => 1,
    };
    // The first calibration pays for cold caches and fresh pages.
    host::calibrate(threads);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < REPS || plan.seconds.is_some_and(|s| measured < s) {
        let ((out, peak), slowdown) = calibrated(threads, || {
            let base = alloc::reset_peak();
            let out = workload.rep(&ctx(reps.is_empty()), None);
            (out, alloc::peak() - base)
        });
        measured += out.window.as_secs_f64();
        reps.push(Rep {
            out,
            peak,
            slowdown,
        });
    }
    let first = &reps[0].out;
    let mut attempted: u64 = reps.iter().map(|r| r.out.ops.max(1)).sum();
    let mut failed: u64 = reps.iter().map(|r| r.out.failed).sum();
    let drifted = reps.iter().filter(|r| r.out.exact != first.exact).count();
    if drifted > 0 {
        eprintln!("benchmark: {drifted} repetitions changed the virtual metrics");
    }
    failed += drifted as u64;

    let of = |f: &dyn Fn(&Rep) -> f64| -> f64 { median(&reps.iter().map(f).collect::<Vec<_>>()) };
    let ops_per_s = |r: &Rep| r.out.ops as f64 / r.out.window.as_secs_f64();
    let mut host = Metrics::default();
    host.push(
        "throughput_ops_per_s",
        of(&|r| ops_per_s(r) * r.slowdown),
        "1/s",
    );
    host.push(
        "setup_s",
        of(&|r| r.out.setup.as_secs_f64() / r.slowdown),
        "s",
    );
    host.push("peak_heap_mb", of(&|r| r.peak as f64 / 1e6), "MB");
    host.push("throughput_raw_ops_per_s", of(&ops_per_s), "1/s");
    host.push("setup_raw_s", of(&|r| r.out.setup.as_secs_f64()), "s");
    host.push("host_slowdown", of(&|r| r.slowdown), "ratio");

    let mut layers = Metrics::default();
    let mut spans = Vec::new();
    if plan.traced {
        let mut tracer = Tracer::default();
        let (out, slowdown) = calibrated(threads, || workload.rep(&ctx(false), Some(&mut tracer)));
        attempted += out.ops.max(1);
        failed += out.failed;
        if out.exact != first.exact {
            eprintln!("benchmark: tracing changed the virtual metrics");
            failed += 1;
        }
        layers = layer_metrics(&mut tracer, out.window.as_nanos() as u64);
        let untraced = of(&|r| r.out.window.as_secs_f64() / r.slowdown);
        layers.push(
            "trace.overhead_pct",
            100.0 * (out.window.as_secs_f64() / slowdown / untraced - 1.0),
            "%",
        );
        spans = tracer.into_sampled();
    }
    Outcome {
        workload,
        reps: reps.len(),
        attempted,
        failed,
        host,
        exact: reps.swap_remove(0).out.exact,
        layers,
        spans,
    }
}

/// The host-clock per-layer metrics of a traced repetition whose window
/// took `window_ns`.
fn layer_metrics(t: &mut Tracer, window_ns: u64) -> Metrics {
    let mut out = Metrics::default();
    for (name, key, q) in [
        ("kernel.hit_ns_p50", "kernel.hit", 500),
        ("kernel.hit_ns_p99", "kernel.hit", 990),
        ("machine.fault_ns_p50", "machine.fault", 500),
        ("machine.fault_ns_p99", "machine.fault", 990),
        ("machine.uio_ns_p50", "machine.uio", 500),
        ("machine.segment_ns_p50", "machine.segment", 500),
        ("machine.tick_ns_p50", "machine.tick", 500),
        ("machine.tick_ns_p99", "machine.tick", 990),
        ("baseline.app_ns_p50", "baseline.app", 500),
        ("apps.diff.vpp_ns", "apps.diff", 500),
        ("apps.uncompress.vpp_ns", "apps.uncompress", 500),
        ("apps.latex.vpp_ns", "apps.latex", 500),
    ] {
        if let Some(ns) = percentile(t.sorted(key), q) {
            out.push(name, ns as f64, "ns");
        }
    }
    for (name, key) in [
        ("dbms.no_index.host_ms", "dbms.no_index"),
        ("dbms.in_memory.host_ms", "dbms.in_memory"),
        ("dbms.paging.host_ms", "dbms.paging"),
        ("dbms.regeneration.host_ms", "dbms.regeneration"),
        ("shard.run_ms", "shard.run"),
        ("economy.aggregate_ms", "economy.aggregate"),
    ] {
        let ns: u64 = t.sorted(key).iter().sum();
        if ns > 0 {
            out.push(name, ns as f64 / 1e6, "ms");
        }
    }
    let tick_ns: u64 = t.sorted("machine.tick").iter().sum();
    if tick_ns > 0 {
        out.push(
            "machine.tick_host_share",
            ratio(tick_ns, window_ns),
            "ratio",
        );
    }
    for layer in [
        Layer::Bench,
        Layer::Kernel,
        Layer::Machine,
        Layer::Workloads,
        Layer::Baseline,
    ] {
        let ns = t.self_ns(layer);
        if ns > 0 {
            out.push(format!("{}.self_ms", layer.name()), ns as f64 / 1e6, "ms");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_runs_repeat_exactly_and_pass_every_oracle() {
        let plan = Plan {
            seed: 42,
            scale: Scale::Tiny,
            seconds: None,
            traced: false,
        };
        for w in Workload::ALL {
            let a = measure(w, &plan);
            let b = measure(w, &plan);
            assert_eq!(a.failed, 0, "{}", w.name());
            assert_eq!(a.error_rate(), 0.0);
            assert_eq!(a.exact, b.exact, "{}", w.name());
            assert_eq!(a.virt_digest(), b.virt_digest());
            assert!(a.exact.get("ops").is_some_and(|n| n > 0.0), "{}", w.name());
        }
    }
}
