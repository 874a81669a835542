//! The scenario registry's contract, and the repository's one
//! determinism harness: every `reproduce` section produces
//! byte-identical text and `BENCH_*.json` documents at every worker
//! configuration and on every run (the golden digests), and every
//! section's gates pass.
//!
//! One test runs the whole registry (`epcm_bench::scenario::SCENARIOS`)
//! under the same command line CI's `scenarios` job uses, at `--jobs`
//! and `--shards` 1, 2, 4 and 8. A section added to the registry is
//! run here too; the test fails until its flag joins the command line
//! below (and CI's).

use epcm::managers::shard::{ShardEngineConfig, ShardRunReport};
use epcm_bench::ablations::{self, SweepScale};
use epcm_bench::json_report::{metrics_json, traced_results_with};
use epcm_bench::pool::ScenarioPool;
use epcm_bench::scenario::{parse_args, Output, SCENARIOS};
use epcm_bench::shards;

/// Every section on, as in CI's `scenarios` job, minus the worker flags.
const EVERY_SECTION: &str = "--quick --json --tiers dram:64,slow:256,zram:64 --promotion \
     --async-writeback --batched-abi --chaos 3405691582:0.5 --economy both --ablations";

/// Worker counts exercised, each as both `--jobs` and `--shards`.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Runs every selected section at `workers` jobs and shards.
fn run_registry(workers: usize) -> Vec<Output> {
    let line = format!("{EVERY_SECTION} --jobs {workers} --shards {workers}");
    let opts = parse_args(&line.split_whitespace().collect::<Vec<_>>()).expect("valid flags");
    assert!(
        SCENARIOS.iter().all(|s| (s.selected)(&opts)),
        "the command line leaves a registered section out"
    );
    let pool = ScenarioPool::new(opts.jobs);
    SCENARIOS.iter().map(|s| (s.run)(&opts, &pool)).collect()
}

#[test]
fn every_scenario_is_worker_invariant_and_passes_its_gates() {
    let serial = run_registry(WORKERS[0]);
    for (s, out) in SCENARIOS.iter().zip(&serial) {
        assert!(
            out.failures.is_empty(),
            "{}: gates failed: {:?}",
            s.name,
            out.failures
        );
        assert!(!out.text.is_empty(), "{}: rendered nothing", s.name);
        assert!(!out.files.is_empty(), "{}: wrote no document", s.name);
    }
    for &workers in &WORKERS[1..] {
        for ((s, a), b) in SCENARIOS.iter().zip(&serial).zip(run_registry(workers)) {
            assert_eq!(
                a.text, b.text,
                "{}: text at {workers} workers diverged from serial",
                s.name
            );
            assert_eq!(
                a.files, b.files,
                "{}: BENCH files at {workers} workers diverged from serial",
                s.name
            );
            assert_eq!(a.failures, b.failures, "{}: gates diverged", s.name);
        }
    }
}

/// The committed digests of `reproduce`'s outputs (see [`golden`]).
const GOLDEN: &str = include_str!("golden/reproduce.digests");

/// The last line `reproduce` prints after its sections.
const FOOTER: &str = "\n(Figures 1 and 2 are architecture diagrams; run `cargo run --example address_space` and `cargo run --example fault_walkthrough` for their executable equivalents.)\n";

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest file's contents for the current code: one `name digest`
/// line per output of `reproduce {EVERY_SECTION} --shards 4`: its stdout
/// and each `BENCH_*.json` as written, trailing newline included.
fn golden() -> String {
    let line = format!("{EVERY_SECTION} --shards 4");
    let opts = parse_args(&line.split_whitespace().collect::<Vec<_>>()).expect("valid flags");
    let pool = ScenarioPool::new(opts.jobs);
    let mut stdout = String::new();
    let mut files = Vec::new();
    for s in SCENARIOS.iter().filter(|s| (s.selected)(&opts)) {
        let out = (s.run)(&opts, &pool);
        stdout.push_str(&out.text);
        for (file, json) in out.files {
            stdout.push_str(&format!("wrote {file}\n"));
            files.push((file, format!("{json}\n")));
        }
    }
    stdout.push_str(FOOTER);
    let mut digests = format!("stdout {:016x}\n", fnv64(stdout.as_bytes()));
    for (file, json) in files {
        digests.push_str(&format!("{file} {:016x}\n", fnv64(json.as_bytes())));
    }
    digests
}

/// Same bytes, checked: any change to a `reproduce` output fails here
/// until `tests/golden/reproduce.digests` is updated (and the change
/// declared in CHANGES.md).
#[test]
fn outputs_match_the_golden_digests() {
    let want: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    let got = golden();
    assert!(
        want == got,
        "reproduce outputs moved; the digests for this code are:\n{got}"
    );
}

/// The registry runs the ablation sweeps at the paper scale; the reduced
/// scale's report (text and document) must be jobs invariant too.
#[test]
fn ablations_render_is_jobs_invariant() {
    let fingerprint = |jobs: usize| {
        let report = ablations::results_with(&ScenarioPool::new(jobs), SweepScale::Quick);
        ablations::render(&report) + &ablations::ablations_json(&report)
    };
    let serial = fingerprint(1);
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            fingerprint(jobs),
            "ablations render: --jobs {jobs} diverged from --jobs 1"
        );
    }
}

/// The tables23 section writes the metrics snapshot of the first traced
/// application only; the other applications' snapshots must be jobs
/// invariant too.
#[test]
fn traced_metrics_are_jobs_invariant() {
    let snapshots = |jobs| -> Vec<String> {
        let traced = traced_results_with(&ScenarioPool::new(jobs));
        traced.iter().map(metrics_json).collect()
    };
    let serial = snapshots(1);
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            snapshots(jobs),
            "--jobs {jobs} diverged from --jobs 1"
        );
    }
}

/// The sharded engine's stress preset, 1 worker against 4, over 20
/// seeds: the rendered tables (merged trace included) and the JSON
/// document must match byte for byte, and every run must conserve its
/// frames. Heavy, so ignored by default; CI's `scenarios` job runs it
/// in release mode: `cargo test --release --test scenarios -- --ignored stress`.
#[test]
#[ignore = "heavy; run by CI's scenarios job"]
fn stress() {
    let fingerprint =
        |report: &ShardRunReport| shards::render(report) + &shards::shards_json(report);
    for rep in 0..20 {
        let mut cfg = ShardEngineConfig::stress();
        cfg.seed = cfg.seed.wrapping_add(rep);
        let flat = shards::run_report_with(&cfg, 1);
        let sharded = shards::run_report_with(&cfg, 4);
        assert_eq!(
            fingerprint(&flat),
            fingerprint(&sharded),
            "stress rep {rep}: --shards 4 diverged from --shards 1"
        );
        assert!(flat.conserved, "stress rep {rep}: frames not conserved");
    }
}
