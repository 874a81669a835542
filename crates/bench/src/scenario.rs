//! The scenario registry: one table of every `reproduce` section.
//!
//! [`SCENARIOS`] lists the sections in output order. Each entry names
//! the flag that selects it (the paper tables have none: they run by
//! default and `--table N` narrows them), a run function over the
//! parsed [`Options`] and the [`ScenarioPool`], and — inside that run
//! function — the gates its typed report must pass. The `reproduce`
//! binary and `tests/scenarios.rs` iterate over this one table, and the
//! CI `scenarios` job runs both, so a section's flag, outputs and gates
//! are declared once.
//!
//! Every section's text and files are a pure function of the options
//! minus the worker counts: any `--jobs`/`--shards` split produces the
//! same bytes. `--shards N` both selects the sharded section and sets
//! the worker count of the chaos and economy sections.

use epcm_core::shard::ShardSpec;
use epcm_core::tier::{TierLayout, TierSpec};
use epcm_economy::{EconomyConfig, EconomyReport, IncomeClass};
use epcm_managers::shard::{LaneFate, ShardRunReport};
use epcm_sim::chaos::ChaosPlan;

use crate::pool::ScenarioPool;
use crate::promotion::PromotionPair;
use crate::ring::RingReport;
use crate::{
    ablations, chaos, economy, json_report, promotion, ring, shards, table1, table23, table4,
    tiers, writeback,
};

/// Total frame budget of the tier sweep when `--tiers dram:ALL` leaves
/// the split unspecified — matches the 64/256/64 default split.
const DEFAULT_TIER_FRAMES: u64 = 384;

/// A parsed `reproduce` command line.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// `--quick`: Table 4 at reduced transaction count.
    pub quick: bool,
    /// `--json`: write each section's `BENCH_*.json` files.
    pub json: bool,
    /// `--ablations`: the design-choice ablation sweeps.
    pub ablations: bool,
    /// `--wall-clock`: time each section, write `BENCH_timings.json`.
    pub wall_clock: bool,
    /// `--jobs N`: scenario-pool workers (`0`, the default, is serial).
    pub jobs: usize,
    /// `--table N`: run only paper table `N` (1–4).
    pub table: Option<u32>,
    /// `--tiers SPEC`: the tier sweep's requested layout.
    pub tiers: Option<TierSpec>,
    /// `--promotion`: the hot-page promotion ablation.
    pub promotion: bool,
    /// `--async-writeback`: the sync-vs-async laundry ablation.
    pub async_writeback: bool,
    /// `--batched-abi`: the ring crossing-collapse report.
    pub batched_abi: bool,
    /// `--shards N`: the sharded run, and the chaos/economy workers.
    pub shards: Option<ShardSpec>,
    /// `--chaos SEED:RATE`: the chaos-injection run.
    pub chaos: Option<ChaosPlan>,
    /// `--economy quick|stress|both`: the memory-market scenarios.
    pub economy: Option<Vec<EconomyConfig>>,
}

impl Options {
    /// Whether paper table `n` is selected (all are, without `--table`).
    pub fn wants_table(&self, n: u32) -> bool {
        self.table.is_none_or(|t| t == n)
    }

    /// Worker threads of the sharded, chaos and economy sections.
    pub fn workers(&self) -> u32 {
        self.shards.map_or(1, ShardSpec::count)
    }
}

/// One command-line flag: its name, a one-line description and how it
/// sets the [`Options`].
pub struct Flag {
    /// The flag as typed, e.g. `--tiers`.
    pub name: &'static str,
    /// One-line description for the usage list.
    pub help: &'static str,
    /// How the flag sets the options.
    pub set: Setter,
}

/// How a [`Flag`] sets the [`Options`].
pub enum Setter {
    /// A switch: turns one boolean option on.
    Switch(fn(&mut Options) -> &mut bool),
    /// A flag with one value: its placeholder and its parser.
    Value(&'static str, fn(&mut Options, &str) -> Result<(), String>),
}

impl Flag {
    const fn switch(
        name: &'static str,
        help: &'static str,
        field: fn(&mut Options) -> &mut bool,
    ) -> Flag {
        Flag {
            name,
            help,
            set: Setter::Switch(field),
        }
    }

    const fn value(
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
        parse: fn(&mut Options, &str) -> Result<(), String>,
    ) -> Flag {
        Flag {
            name,
            help,
            set: Setter::Value(placeholder, parse),
        }
    }
}

/// What one section produced: its rendered text, its `(file, JSON)`
/// documents and the messages of every gate its report failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The rendered tables, printed to stdout.
    pub text: String,
    /// `BENCH_*.json` documents, written with `--json`.
    pub files: Vec<(&'static str, String)>,
    /// Failed gates; empty when the section met every claim.
    pub failures: Vec<String>,
}

impl Output {
    fn new(text: String) -> Self {
        Self {
            text,
            files: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn file(mut self, name: &'static str, json: String) -> Self {
        self.files.push((name, json));
        self
    }

    fn gates<R: ?Sized>(mut self, report: &R, gates: &[Gate<R>]) -> Self {
        self.failures
            .extend(gates.iter().filter_map(|gate| gate(report).err()));
        self
    }
}

/// A claim over a section's typed report.
type Gate<R> = fn(&R) -> Result<(), String>;

fn ensure(ok: bool, failure: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(failure.into())
    }
}

/// One `reproduce` section.
pub struct Scenario {
    /// Section name, also its `--wall-clock` phase name.
    pub name: &'static str,
    /// The flag that selects the section; the paper tables have none.
    pub flag: Option<Flag>,
    /// Whether the parsed options select the section.
    pub selected: fn(&Options) -> bool,
    /// Runs the section and checks its gates.
    pub run: fn(&Options, &ScenarioPool) -> Output,
}

/// Flags that shape every run rather than select a section.
static GLOBAL_FLAGS: &[Flag] = &[
    Flag::switch("--quick", "Table 4 at reduced transaction count", |o| {
        &mut o.quick
    }),
    Flag::switch(
        "--json",
        "also write each section's BENCH_*.json files",
        |o| &mut o.json,
    ),
    Flag::value("--table", "N", "run only paper table N (1-4)", |o, v| {
        let n = v.parse().ok().filter(|n| (1..=4).contains(n));
        n.map(|n| o.table = Some(n))
            .ok_or_else(|| format!("`{v}`: not a table number (1-4)"))
    }),
    Flag::value(
        "--jobs",
        "N",
        "fan independent scenarios over N workers",
        |o, v| {
            v.parse()
                .map(|n| o.jobs = n)
                .map_err(|_| format!("`{v}`: not a job count"))
        },
    ),
    Flag::switch(
        "--wall-clock",
        "time each section, write BENCH_timings.json",
        |o| &mut o.wall_clock,
    ),
];

/// Every section, in output order.
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "table1",
        flag: None,
        selected: |o| o.wants_table(1),
        run: |_, _| {
            Output::new(table1::render()).file("BENCH_table1.json", json_report::table1_json())
        },
    },
    Scenario {
        name: "tables23",
        flag: None,
        selected: |o| o.wants_table(2) || o.wants_table(3),
        run: run_tables23,
    },
    Scenario {
        name: "table4",
        flag: None,
        selected: |o| o.wants_table(4),
        run: |o, pool| {
            let results = if o.quick {
                table4::quick_results_with(pool)
            } else {
                table4::results_with(pool)
            };
            Output::new(table4::render(&results)).file(
                "BENCH_table4.json",
                json_report::table4_json(&results, o.quick),
            )
        },
    },
    Scenario {
        name: "tiers",
        flag: Some(Flag::value(
            "--tiers",
            "SPEC",
            "add the tier sweep: dram:N,slow:M,zram:K or dram:ALL",
            |o, v| TierSpec::parse(v).map(|t| o.tiers = Some(t)),
        )),
        selected: |o| o.tiers.is_some(),
        run: |o, pool| {
            let requested = match o.tiers {
                Some(TierSpec::Layout(layout)) => layout,
                _ => TierLayout::dram_only(DEFAULT_TIER_FRAMES),
            };
            let points = tiers::results_with(pool, requested);
            Output::new(tiers::render(&points))
                .file("BENCH_tiers.json", tiers::tiers_json(requested, &points))
        },
    },
    Scenario {
        name: "promotion",
        flag: Some(Flag::switch(
            "--promotion",
            "add the hot-page promotion ablation (off vs on)",
            |o| &mut o.promotion,
        )),
        selected: |o| o.promotion,
        run: |o, pool| {
            // The ablation reuses the tier sweep's frame budget: a
            // --tiers layout steers it, otherwise the default split.
            let requested = match o.tiers {
                Some(TierSpec::Layout(layout)) => layout,
                _ => TierLayout::new(64, 256, 64),
            };
            let pairs = promotion::results_with(pool, requested);
            Output::new(promotion::render(&pairs))
                .file(
                    "BENCH_promotion.json",
                    promotion::promotion_json(requested, &pairs),
                )
                .gates(pairs.as_slice(), PROMOTION_GATES)
        },
    },
    Scenario {
        name: "writeback",
        flag: Some(Flag::switch(
            "--async-writeback",
            "add the sync-vs-async laundry ablation",
            |o| &mut o.async_writeback,
        )),
        selected: |o| o.async_writeback,
        run: |_, pool| {
            let points = writeback::results_with(pool);
            Output::new(writeback::render(&points))
                .file("BENCH_writeback.json", writeback::writeback_json(&points))
        },
    },
    Scenario {
        name: "ring",
        flag: Some(Flag::switch(
            "--batched-abi",
            "add the batched-ABI crossing collapse and ring reruns",
            |o| &mut o.batched_abi,
        )),
        selected: |o| o.batched_abi,
        run: |_, pool| {
            let report = ring::results_with(pool);
            Output::new(ring::render(&report))
                .file("BENCH_ring.json", ring::ring_json(&report))
                .gates(&report, RING_GATES)
        },
    },
    Scenario {
        name: "shards",
        flag: Some(Flag::value(
            "--shards",
            "N",
            "add the sharded run; N workers for it, chaos and economy",
            |o, v| ShardSpec::parse(v).map(|n| o.shards = Some(n)),
        )),
        selected: |o| o.shards.is_some(),
        run: |o, _| {
            let report = shards::run_report(o.workers());
            Output::new(shards::render(&report))
                .file("BENCH_shards.json", shards::shards_json(&report))
                .gates(&report, CONSERVATION_GATES)
                .gates(&report, SHARD_GATES)
        },
    },
    Scenario {
        name: "chaos",
        flag: Some(Flag::value(
            "--chaos",
            "SEED:RATE",
            "add the chaos-injection run at RATE per lane-epoch",
            |o, v| ChaosPlan::parse(v).map(|plan| o.chaos = Some(plan)),
        )),
        selected: |o| o.chaos.is_some(),
        run: |o, _| {
            let plan = o.chaos.clone().expect("selected by --chaos");
            let report = chaos::run_report(plan.clone(), o.workers());
            Output::new(chaos::render(&plan, &report))
                .file("BENCH_chaos.json", chaos::chaos_json(&plan, &report))
                .gates(&report, CONSERVATION_GATES)
                .gates(&report, CHAOS_GATES)
        },
    },
    Scenario {
        name: "economy",
        flag: Some(Flag::value(
            "--economy",
            "quick|stress|both",
            "add the memory-market scenarios",
            |o, v| EconomyConfig::parse(v).map(|cfgs| o.economy = Some(cfgs)),
        )),
        selected: |o| o.economy.is_some(),
        run: |o, _| {
            let cfgs = o.economy.as_deref().expect("selected by --economy");
            let reports = economy::run_reports(cfgs, o.workers());
            Output::new(economy::render(&reports))
                .file("BENCH_economy.json", economy::economy_json(&reports))
                .gates(reports.as_slice(), ECONOMY_GATES)
        },
    },
    Scenario {
        name: "ablations",
        flag: Some(Flag::switch(
            "--ablations",
            "add the design-choice ablation sweeps (full DBMS sweep)",
            |o| &mut o.ablations,
        )),
        selected: |o| o.ablations,
        run: |_, pool| {
            let report = ablations::results_with(pool, ablations::SweepScale::Paper);
            Output::new(ablations::render(&report))
                .file("BENCH_ablations.json", ablations::ablations_json(&report))
        },
    },
];

fn run_tables23(o: &Options, pool: &ScenarioPool) -> Output {
    // Traced runs produce the same reports plus event counts.
    let traced = json_report::traced_results_with(pool);
    let results: Vec<table23::AppResult> = traced.iter().map(|t| t.result.clone()).collect();
    let mut text = String::new();
    if o.wants_table(2) {
        text.push_str(&table23::render_table2(&results));
    }
    if o.wants_table(3) {
        text.push_str(&table23::render_table3(&results));
    }
    Output::new(text)
        .file("BENCH_tables23.json", json_report::tables23_json(&traced))
        .file("BENCH_metrics.json", json_report::metrics_json(&traced[0]))
}

const PROMOTION_GATES: &[Gate<[PromotionPair]>] = &[
    |pairs| {
        ensure(
            promotion::promotion_wins(pairs),
            "a promotion-on arm was not strictly cheaper than its off arm",
        )
    },
    |pairs| {
        let min = promotion::min_improvement(pairs);
        ensure(
            min >= 2.0,
            format!("weakest hot-pass improvement {min:.2}x below the 2x floor"),
        )
    },
    |pairs| {
        let off = pairs.iter().all(|p| p.off.promotions == 0);
        ensure(off, "an off arm promoted")
    },
    |pairs| {
        let on = pairs.iter().all(|p| p.on.promotions > 0);
        ensure(on, "an on arm never promoted")
    },
];

const RING_GATES: &[Gate<RingReport>] = &[
    |report| {
        let factor = report.collapse_factor();
        ensure(
            factor >= 4.0,
            format!("crossing collapse {factor:.2}x below the 4x floor"),
        )
    },
    // Every application rerun issues single-op batches, so the direct
    // rows must ring one doorbell per op and the batched rows must
    // reproduce their timeline to the microsecond.
    |report| {
        report.apps.chunks(2).try_for_each(|pair| {
            let (direct, batched) = (&pair[0], &pair[1]);
            ensure(
                direct.ring_batches == direct.ring_ops,
                format!("{}: a direct batch held more than one op", direct.app),
            )?;
            ensure(
                direct.elapsed_us == batched.elapsed_us,
                format!(
                    "{}: batched rerun took {} us, direct {} us",
                    direct.app, batched.elapsed_us, direct.elapsed_us
                ),
            )
        })
    },
];

const CONSERVATION_GATES: &[Gate<ShardRunReport>] = &[
    |report| ensure(report.conserved, "spill pool lost or duplicated frames"),
    |report| {
        let residual = report.ledger_residual;
        ensure(
            residual.abs() < 1e-6,
            format!("market ledger out of balance: residual {residual}"),
        )
    },
];

const SHARD_GATES: &[Gate<ShardRunReport>] = &[
    |report| {
        ensure(
            report.lanes.iter().all(|l| l.final_time_us > 0),
            "a lane never reached the final barrier",
        )
    },
    |report| {
        ensure(
            report.lanes.iter().any(|l| l.lease_peak > 0),
            "no lane ever leased a spill frame",
        )
    },
    |report| {
        ensure(
            report.epochs.iter().any(|e| e.contended),
            "no epoch contended for spill frames",
        )
    },
];

const CHAOS_GATES: &[Gate<ShardRunReport>] = &[
    |report| {
        ensure(
            report.trace.iter().any(|l| l.contains("chaos injected")),
            "no chaos event was ever injected",
        )
    },
    |report| ensure(report.departures > 0, "churn never departed a lane"),
    // A lane that crashed and then departed counts as a departure under
    // the crash fate, so the counter can only exceed the departed fates.
    |report| {
        let departed = report.lanes.iter().filter(|l| l.fate == LaneFate::Departed);
        ensure(
            report.departures >= departed.count() as u64,
            format!(
                "departure counter {} below the departed lanes",
                report.departures
            ),
        )
    },
    |report| {
        report
            .lanes
            .iter()
            .filter(|l| l.fate == LaneFate::Departed)
            .try_for_each(|l| {
                ensure(
                    l.balance == 0.0,
                    format!(
                        "lane {} departed with {} drams unsettled",
                        l.lane, l.balance
                    ),
                )
            })
    },
];

const ECONOMY_GATES: &[Gate<[EconomyReport]>] = &[
    |reports| {
        ensure(
            economy::tail_order_ok(reports),
            "premium p99 above spot p99",
        )
    },
    |reports| {
        ensure(
            economy::price_response_ok(reports),
            "stress DRAM rent did not climb above quick's",
        )
    },
    |reports| {
        stress(reports).try_for_each(|r| {
            let (premium, spot) = (r.class(IncomeClass::Premium), r.class(IncomeClass::Spot));
            ensure(
                premium.p99_us <= spot.p99_us,
                format!(
                    "stress preset: premium p99 {} above spot p99 {}",
                    premium.p99_us, spot.p99_us
                ),
            )
        })
    },
    |reports| {
        stress(reports).try_for_each(|r| {
            ensure(
                r.residual.abs() < r.residual_bound,
                format!("stress ledger residual {} out of bound", r.residual),
            )
        })
    },
    |reports| {
        stress(reports).try_for_each(|r| {
            ensure(
                r.class(IncomeClass::Spot).bankrupt_resident_lanes > 0,
                "demotion ladder kept no bankrupt spot lane resident",
            )
        })
    },
];

fn stress(reports: &[EconomyReport]) -> impl Iterator<Item = &EconomyReport> {
    reports.iter().filter(|r| r.name == "stress")
}

/// Every flag `reproduce` accepts: the global ones, then each section's.
pub fn flags() -> impl Iterator<Item = &'static Flag> {
    GLOBAL_FLAGS
        .iter()
        .chain(SCENARIOS.iter().filter_map(|s| s.flag.as_ref()))
}

/// Parses a `reproduce` command line (without the program name).
///
/// # Errors
///
/// An unknown flag, a missing value, or a value its parser rejects.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let flag = flags()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        match flag.set {
            Setter::Switch(field) => *field(&mut opts) = true,
            Setter::Value(placeholder, parse) => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value ({placeholder})"))?;
                parse(&mut opts, value).map_err(|e| format!("{arg} {value}: {e}"))?;
            }
        }
    }
    Ok(opts)
}

/// The usage text: one line per flag, generated from the registry.
pub fn usage() -> String {
    let mut out = String::from("usage: reproduce [FLAG]...\n");
    for f in flags() {
        let flag = match f.set {
            Setter::Value(placeholder, _) => format!("{} {placeholder}", f.name),
            Setter::Switch(_) => f.name.to_string(),
        };
        out.push_str(&format!("  {flag:<28} {}\n", f.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for line in [
            "--promtion",
            "--jobs abc",
            "--table x",
            "--table 5",
            "--tiers bogus",
            "--shards 0",
            "--chaos 7",
            "--economy huge",
            "--jobs",
            "--quick extra",
        ] {
            assert!(parse(line).is_err(), "`{line}` was accepted");
        }
    }

    #[test]
    fn accepts_every_documented_invocation() {
        // Every invocation in ci.yml, README.md, DESIGN.md and
        // EXPERIMENTS.md.
        for line in [
            "",
            "--json",
            "--ablations",
            "--quick --json",
            "--quick --json --jobs 8 --wall-clock",
            "--table 4",
            "--jobs 8",
            "--tiers dram:64,slow:256,zram:64 --json",
            "--tiers dram:ALL",
            "--promotion --json",
            "--async-writeback --json",
            "--batched-abi --json",
            "--shards 4 --json",
            "--chaos 7:0.5 --json",
            "--economy quick --json",
            "--economy both --json",
            "--quick --json --tiers dram:64,slow:256,zram:64 --promotion --async-writeback \
             --batched-abi --chaos 3405691582:0.5 --economy both --ablations --shards 4 --jobs 8",
        ] {
            if let Err(e) = parse(line) {
                panic!("`{line}` was rejected: {e}");
            }
        }
    }

    #[test]
    fn values_reach_the_options() {
        let o = parse("--table 2 --jobs 8 --shards 4 --economy both").expect("valid");
        assert_eq!((o.table, o.jobs, o.workers()), (Some(2), 8, 4));
        assert!(o.wants_table(2) && !o.wants_table(1));
        assert_eq!(o.economy.map(|c| c.len()), Some(2));
        let o = parse("").expect("valid");
        assert!((1..=4).all(|n| o.wants_table(n)));
        assert_eq!((o.jobs, o.workers()), (0, 1));
    }

    #[test]
    fn every_flag_is_registered_once() {
        let mut names: Vec<_> = flags().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), flags().count(), "a flag is registered twice");
    }
}
