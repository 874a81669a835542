//! `dbms_table4`: the four Table 4 strategies, open-loop Poisson arrivals
//! at 40 tps in virtual time. Only the lock manager and the event queue
//! work here and no `Machine` is involved, so this is the workload every
//! kernel and manager change bypasses.

use std::time::Instant;

use epcm_bench::table4::paper_values;
use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_dbms::engine::{run, DbmsReport};

use crate::report::Metrics;
use crate::run::{Ctx, RepOut, Scale};
use crate::stats::{ratio, Counts};
use crate::trace::{Layer, Tracer};

fn config(s: IndexStrategy, scale: Scale) -> DbmsConfig {
    match scale {
        Scale::Full => DbmsConfig {
            txn_count: 150_000,
            ..DbmsConfig::paper(s)
        },
        Scale::Tiny => DbmsConfig::quick(s),
    }
}

/// Metric and span key of a strategy.
fn key(s: IndexStrategy) -> &'static str {
    match s {
        IndexStrategy::NoIndex => "dbms.no_index",
        IndexStrategy::InMemory => "dbms.in_memory",
        IndexStrategy::Paging => "dbms.paging",
        IndexStrategy::Regeneration => "dbms.regeneration",
    }
}

/// One repetition.
pub fn rep(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> RepOut {
    let setup_start = Instant::now();
    let configs: Vec<DbmsConfig> = IndexStrategy::all()
        .into_iter()
        .map(|s| DbmsConfig {
            seed: ctx.seed,
            ..config(s, ctx.scale)
        })
        .collect();
    // Warm-up pass: a short run of every strategy.
    for c in &configs {
        std::hint::black_box(run(&DbmsConfig {
            txn_count: c.txn_count / 50,
            warmup: c.warmup / 50,
            ..c.clone()
        }));
    }
    let setup = setup_start.elapsed();

    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.open("rep", 0, 0);
    }
    let reports: Vec<DbmsReport> = configs
        .iter()
        .map(|c| {
            if let Some(t) = tracer.as_deref_mut() {
                t.open(key(c.strategy), 0, 0);
            }
            let r = run(c);
            if let Some(t) = tracer.as_deref_mut() {
                let ns = t.close(Layer::Dbms, 0);
                t.record(key(c.strategy), ns);
            }
            r
        })
        .collect();
    if let Some(t) = tracer {
        t.close(Layer::Bench, 0);
    }
    let window = start.elapsed();

    // Oracles: every measured transaction completed, and the strategy
    // ordering of Table 4 holds.
    let mut failed = 0;
    for (c, r) in configs.iter().zip(&reports) {
        failed += (c.txn_count - c.warmup).saturating_sub(r.all.count());
    }
    let avg: Vec<f64> = reports.iter().map(DbmsReport::average_ms).collect();
    let ordering = [
        avg[0] > 5.0 * avg[1],
        avg[2] > 5.0 * avg[3],
        avg[3] < 2.0 * avg[1],
    ];
    failed += ordering.iter().filter(|ok| !**ok).count() as u64;

    let mut responses = Counts::default();
    for r in &reports {
        for (lower, count) in r.histogram.iter() {
            // The bucket's upper edge, as `Histogram::quantile_upper_bound`.
            let lower = lower.as_micros();
            responses.add(if lower == 0 { 1 } else { 2 * lower - 1 }, count);
        }
    }
    let ops: u64 = configs.iter().map(|c| c.txn_count).sum();
    let mut exact = Metrics::default();
    exact.push("ops", ops as f64, "count");
    exact.push_percentiles("virt_op_us", &responses, "us");
    let err: f64 = reports
        .iter()
        .map(|r| {
            let (paper, _) = paper_values(r.strategy);
            (r.average_ms() - paper).abs() / paper
        })
        .sum();
    exact.push("paper_err_pct", 100.0 * err / reports.len() as f64, "%");
    for r in &reports {
        exact.push(format!("{}.avg_ms", key(r.strategy)), r.average_ms(), "ms");
        exact.push(
            format!("{}.p99_ms", key(r.strategy)),
            r.quantile_ms(0.99),
            "ms",
        );
    }
    let (grants, waits) = reports.iter().fold((0, 0), |(g, w), r| {
        (g + r.lock_contention.0, w + r.lock_contention.1)
    });
    exact.push(
        "dbms.lock_wait_ratio",
        ratio(waits, grants + waits),
        "ratio",
    );
    let restorations: u64 = reports.iter().map(|r| r.index_restorations).sum();
    exact.push("dbms.index_restorations", restorations as f64, "count");
    RepOut {
        setup,
        window,
        ops,
        failed,
        exact,
    }
}
