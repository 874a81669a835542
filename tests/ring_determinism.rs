//! Invariants of the batched-ABI benchmark (`reproduce --batched-abi`).
//!
//! Running the ring section must not perturb the seed benchmark
//! documents: `BENCH_table1.json`, `BENCH_tables23.json` and
//! `BENCH_table4.json` come out byte-identical before and after a ring
//! run in the same process. The golden test pins the Table 2/3 figures
//! and the collapse row to constants. And the ring report must be
//! byte-identical regardless of the `--jobs` worker count (every point
//! owns its machine; the [`ScenarioPool`] joins in declared order).

use epcm::managers::default_manager::DefaultSegmentManager;
use epcm::managers::Machine;
use epcm_bench::json_report::{table1_json, table4_json, tables23_json, traced_results_with};
use epcm_bench::pool::ScenarioPool;
use epcm_bench::{ring, table4};
use epcm_workloads::apps::table2_apps;
use epcm_workloads::runner::{run_vpp_app, PAPER_FRAMES};

const JOB_COUNTS: [usize; 3] = [1, 4, 8];

/// Renders the full ring report (text + JSON) under one pool size.
fn ring_output(jobs: usize) -> String {
    let report = ring::results_with(&ScenarioPool::new(jobs));
    let mut out = ring::render(&report);
    out.push_str(&ring::ring_json(&report));
    out
}

#[test]
fn ring_report_is_jobs_invariant() {
    let serial = ring_output(JOB_COUNTS[0]);
    for &jobs in &JOB_COUNTS[1..] {
        assert_eq!(
            serial,
            ring_output(jobs),
            "BENCH_ring.json: --jobs {jobs} diverged from --jobs 1"
        );
    }
}

/// The three seed documents, rendered in-process.
fn seed_documents() -> [String; 3] {
    let pool = ScenarioPool::serial();
    [
        table1_json(),
        tables23_json(&traced_results_with(&pool)),
        table4_json(&table4::quick_results_with(&pool), true),
    ]
}

/// Running the ring section must not perturb the seed tables: render
/// all three documents before and after a full ring run in the same
/// process and compare them byte for byte.
#[test]
fn batched_off_tables_are_untouched_by_a_ring_run() {
    let before = seed_documents();
    let _ = ring::results_with(&ScenarioPool::serial());
    let after = seed_documents();
    let names = ["table1", "tables23", "table4"];
    for ((name, a), b) in names.iter().zip(&before).zip(&after) {
        assert_eq!(a, b, "BENCH_{name}.json drifted after the ring section ran");
    }
}

/// The direct-mode rows of the ring report reproduce the seed cost
/// model: every app-rerun batch holds one op, and the batched rows must
/// match their elapsed times exactly (single-op batches are
/// cost-neutral).
#[test]
fn direct_rows_reproduce_the_seed_path() {
    let report = ring::results_with(&ScenarioPool::serial());
    for pair in report.apps.chunks(2) {
        let (direct, batched) = (&pair[0], &pair[1]);
        assert_eq!(direct.app, batched.app);
        assert_eq!(direct.mode, "direct");
        assert_eq!(batched.mode, "batched");
        assert_eq!(
            direct.ring_batches, direct.ring_ops,
            "{}: a direct batch held more than one op",
            direct.app
        );
        assert_eq!(
            direct.elapsed_us, batched.elapsed_us,
            "{}: batched rerun drifted from the seed timeline",
            direct.app
        );
    }
}

/// One Table 2 application's V++ figures under the default server
/// manager: `(app, elapsed µs, faults, manager calls, MigratePages
/// calls, zero fills, crossings)`.
type GoldenRow = (&'static str, u64, u64, u64, u64, u64, u64);

/// Values recorded when every manager page operation still had a direct
/// kernel call path; one doorbell per op must reproduce them exactly.
const TABLE2_GOLDEN: [GoldenRow; 3] = [
    ("diff", 3_990_000, 372, 376, 372, 0, 2_317),
    ("uncompress", 6_390_000, 195, 198, 195, 0, 3_217),
    ("latex", 14_710_000, 238, 250, 238, 0, 1_179),
];

/// Golden regression: the Table 2/3 figures on V++ and the collapse row
/// match fixed constants, and every direct-mode batch holds one op.
#[test]
fn table2_and_collapse_match_golden_constants() {
    let apps = table2_apps();
    assert_eq!(apps.len(), TABLE2_GOLDEN.len());
    for ((spec, _paper), golden) in apps.iter().zip(TABLE2_GOLDEN) {
        let mut m = Machine::new(PAPER_FRAMES);
        let id = m.register_manager(Box::new(DefaultSegmentManager::server()));
        m.set_default_manager(id);
        let r = run_vpp_app(spec, &mut m).expect("table 2 app");
        let k = m.kernel_stats();
        let measured = (
            golden.0,
            r.elapsed.as_micros(),
            r.faults,
            r.manager_calls,
            r.migrate_calls,
            r.zero_fills,
            k.crossings,
        );
        assert_eq!(spec.name, golden.0);
        assert_eq!(
            measured, golden,
            "{} drifted from its golden row",
            spec.name
        );
        assert_eq!(
            k.ring_batches, k.ring_ops,
            "{}: one op per doorbell",
            spec.name
        );
    }
    let direct = ring::measure_collapse(false);
    let batched = ring::measure_collapse(true);
    assert_eq!((direct.crossings, batched.crossings), (18, 3));
    assert_eq!((direct.fault_us, batched.fault_us), (1_018, 748));
    assert_eq!(direct.ring_batches, direct.ring_ops);
    assert_eq!((batched.ring_batches, batched.ring_ops), (1, 16));
}
