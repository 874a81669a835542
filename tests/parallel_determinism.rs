//! Byte-identity of parallel benchmark fan-out, one registry section at
//! a time.
//!
//! The `ScenarioPool` claims jobs with an atomic cursor but joins results
//! in declared order, so every rendered table and JSON document must be
//! byte-for-byte identical no matter how many workers ran it. Each test
//! runs one entry of `epcm_bench::scenario::SCENARIOS` alone at `--jobs`
//! 1, 2, 4 and 8, so a divergence names its section directly;
//! `tests/scenarios.rs` runs the whole registry together.

use epcm_bench::pool::ScenarioPool;
use epcm_bench::scenario::{parse_args, Output, SCENARIOS};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the registry section `name` under `args` at `jobs` workers.
fn section(name: &str, args: &str, jobs: usize) -> Output {
    let line = format!("{args} --jobs {jobs}");
    let opts = parse_args(&line.split_whitespace().collect::<Vec<_>>()).expect("valid flags");
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .expect("a registered section");
    assert!((scenario.selected)(&opts), "{name}: `{args}` leaves it out");
    (scenario.run)(&opts, &ScenarioPool::new(opts.jobs))
}

/// Asserts that `pick` of section `name` is byte-identical at every job
/// count to the serial run.
fn assert_jobs_invariant<T, F>(name: &str, args: &str, pick: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(Output) -> T,
{
    let serial = pick(section(name, args, JOB_COUNTS[0]));
    for &jobs in &JOB_COUNTS[1..] {
        assert_eq!(
            serial,
            pick(section(name, args, jobs)),
            "{name}: --jobs {jobs} diverged from --jobs 1"
        );
    }
}

#[test]
fn table4_quick_render_is_jobs_invariant() {
    assert_jobs_invariant("table4", "--quick", |out| out.text);
}

#[test]
fn table4_quick_json_is_jobs_invariant() {
    assert_jobs_invariant("table4", "--quick", |out| out.files);
}

#[test]
fn tables23_render_and_json_are_jobs_invariant() {
    assert_jobs_invariant("tables23", "", |out| (out.text, out.files));
}

#[test]
fn tiers_sweep_render_and_json_are_jobs_invariant() {
    assert_jobs_invariant("tiers", "--tiers dram:16,slow:64,zram:16", |out| {
        (out.text, out.files)
    });
}

#[test]
fn writeback_ablation_render_and_json_are_jobs_invariant() {
    assert_jobs_invariant("writeback", "--async-writeback", |out| {
        (out.text, out.files)
    });
}
