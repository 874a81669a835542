//! The repository benchmark: five workloads measured end to end, on the
//! host clock (how fast the simulator runs) and on the virtual clock
//! (what the modelled machine would take), and, with `--trace 1`, layer
//! by layer from spans recorded around every call the benchmark makes.
//!
//! ```text
//! benchmark                                   # all five workloads, 3 reps each
//! benchmark --workload tier_zipf_read --seed 42
//! benchmark --workload dbms_table4 --seed 7 --seconds 10 --trace 1
//! benchmark --scale tiny                      # the sizes the tests use
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (or, traced, the per-layer) metrics. `BENCH_benchmark.json`
//! gets every metric, and a traced run writes a sample of its spans to
//! `BENCH_benchmark_trace.json`. The exit code is non-zero when any
//! output check failed. README.md beside this package lists the metrics.

mod alloc;
mod apps;
mod dbms;
mod economy;
mod host;
mod probe;
mod report;
mod run;
mod stats;
mod tiers;
mod trace;

use std::process::ExitCode;

use epcm_trace::json::{JsonArray, JsonObject};

use report::{Metrics, END_TO_END, PER_LAYER};
use run::{measure, Outcome, Plan, Scale, Workload};
use trace::SAMPLE_EVERY;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--scale full|tiny]";

/// Command-line options.
#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    plan: Plan,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Workload::ALL.to_vec(),
        plan: Plan {
            seed: 42,
            scale: Scale::Full,
            seconds: None,
            traced: false,
        },
    };
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            opts.plan.traced = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                opts.workloads = vec![Workload::parse(&value).ok_or_else(bad)?];
            }
            "--seed" => opts.plan.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                opts.plan.seconds = Some(s);
            }
            "--trace" => {
                opts.plan.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                opts.plan.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Every metric of `o`, in print order.
fn all_metrics(o: &Outcome) -> Metrics {
    let mut all = o.host.clone();
    all.append(o.exact.clone());
    all.append(o.layers.clone());
    all.push("error_rate", o.error_rate(), "ratio");
    all
}

/// The metrics the summary JSON line carries for `o`.
fn summary_metrics(o: &Outcome, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = o.layers.get(name).or(o.exact.get(name)).unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, o.host.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

fn metric_json(value: f64, unit: &str) -> String {
    JsonObject::new()
        .f64("value", value)
        .string("unit", unit)
        .finish()
}

fn bench_json(outcomes: &[Outcome], plan: &Plan) -> String {
    let mut arr = JsonArray::new();
    for o in outcomes {
        let mut metrics = JsonObject::new();
        for m in all_metrics(o).iter() {
            metrics = metrics.raw(&m.name, metric_json(m.value, m.unit));
        }
        arr.push_raw(
            JsonObject::new()
                .string("workload", o.workload.name())
                .u64("reps", o.reps as u64)
                .u64("attempted", o.attempted)
                .u64("failed", o.failed)
                .string("virt_digest", &format!("{:016x}", o.virt_digest()))
                .raw("metrics", metrics.finish())
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "benchmark")
        .u64("seed", plan.seed)
        .string(
            "scale",
            if plan.scale == Scale::Full {
                "full"
            } else {
                "tiny"
            },
        )
        .bool("traced", plan.traced)
        .raw("workloads", arr.finish())
        .finish()
}

fn trace_json(outcomes: &[Outcome]) -> String {
    let mut arr = JsonArray::new();
    for o in outcomes {
        let mut spans = JsonArray::new();
        for s in &o.spans {
            spans.push_raw(s.to_json());
        }
        arr.push_raw(
            JsonObject::new()
                .string("workload", o.workload.name())
                .raw("spans", spans.finish())
                .finish(),
        );
    }
    JsonObject::new()
        .string("bench", "benchmark_trace")
        .u64("sample_every", SAMPLE_EVERY)
        .raw("workloads", arr.finish())
        .finish()
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = &opts.plan;
    let mut outcomes = Vec::new();
    for &w in &opts.workloads {
        let o = measure(w, plan);
        let name = w.name();
        println!("{name} reps {} count", o.reps);
        for m in all_metrics(&o).iter() {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
        }
        println!("{name} virt_digest {:016x} fnv1a", o.virt_digest());
        outcomes.push(o);
    }

    let mut files_ok = true;
    let mut write = |path: &str, text: String| {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("benchmark: cannot write {path}: {e}");
            files_ok = false;
        }
    };
    write("BENCH_benchmark.json", bench_json(&outcomes, plan));
    if plan.traced {
        write("BENCH_benchmark_trace.json", trace_json(&outcomes));
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let prefix = outcomes.len() > 1;
    let mut metrics = JsonObject::new();
    for o in &outcomes {
        for (name, value, unit) in summary_metrics(o, plan.traced) {
            let key = if prefix {
                format!("{}.{name}", o.workload.name())
            } else {
                name.to_string()
            };
            metrics = metrics.raw(&key, metric_json(value, unit));
        }
    }
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", failed == 0)
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", metrics.finish())
            .finish()
    );
    if failed == 0 && files_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
