//! Regenerates every table of the paper's evaluation, printing
//! paper-vs-measured rows, plus the sections of the scenario registry
//! ([`epcm_bench::scenario`]), the design-choice ablation sweeps from
//! DESIGN.md among them.
//!
//! ```text
//! reproduce                    # Tables 1-4
//! reproduce --table N          # one paper table (1-4)
//! reproduce --quick            # Table 4 at reduced transaction count
//! reproduce --json             # also write each section's BENCH_*.json
//! reproduce --jobs N           # fan independent scenarios over N workers
//! reproduce --wall-clock       # time each section, write BENCH_timings.json
//! reproduce --tiers dram:64,slow:256,zram:64   # + tier sweep (or dram:ALL)
//! reproduce --promotion        # + hot-page promotion ablation, off vs on
//! reproduce --async-writeback  # + sync-vs-async laundry ablation
//! reproduce --batched-abi      # + ring crossing collapse, Tables 2-4 on rings
//! reproduce --shards N         # + sharded run; N workers for it, chaos, economy
//! reproduce --chaos SEED:RATE  # + chaos-injection run with tenant churn
//! reproduce --economy quick|stress|both        # + memory-market scenarios
//! reproduce --ablations        # + design-choice ablation sweeps (full DBMS sweep)
//! ```
//!
//! Sections run in registry order and print their tables; with `--json`
//! each writes its `BENCH_*.json` documents into the current directory.
//! Every output byte is the same for any `--jobs`/`--shards` split
//! (pinned by `tests/scenarios.rs`), except `BENCH_timings.json`: the
//! per-section wall-clock milliseconds plus a calibration run that lets
//! `perf_gate` normalise numbers across machines. After the last
//! section every gate is checked: a failed gate exits 1, and an unknown
//! flag or an unparsable value exits 2 with the flag list.

use std::collections::{BTreeMap, BinaryHeap};
use std::process::ExitCode;
use std::time::Instant;

use epcm_bench::json_report::{self, WallClockEntry};
use epcm_bench::pool::ScenarioPool;
use epcm_bench::scenario;

fn write_json(path: &str, json: &str) {
    let mut contents = json.to_string();
    contents.push('\n');
    match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Fixed deterministic workload timed on every `--wall-clock` run. The
/// perf gate divides a fresh calibration by the baseline's to estimate
/// the machine-speed ratio, so the workload shares no code with the
/// phases it normalises: ordered-map updates, a binary heap, sorting and
/// 4 KB page copies on plain `std` collections. (Were it simulator code,
/// a change to that code would scale the calibration and the phase alike
/// and cancel out of the gate.)
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut keys = Vec::with_capacity(4096);
    let mut pages: Vec<Box<[u8; 4096]>> = Vec::new();
    for i in 0..20_000u64 {
        // xorshift64: a fixed pseudo-random stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        if i % 2 == 0 {
            map.remove(&((x >> 20) % 4096));
        }
        heap.push(x >> 32);
        if heap.len() > 128 {
            heap.pop();
        }
        keys.push(x);
        if keys.len() == keys.capacity() {
            keys.sort_unstable();
            keys.clear();
        }
        if i % 32 == 0 {
            pages.push(Box::new([i as u8; 4096]));
            if pages.len() > 256 {
                pages.swap_remove((x % 256) as usize);
            }
        }
    }
    std::hint::black_box((map.len(), heap.len(), keys.len(), pages.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

struct WallClock {
    enabled: bool,
    entries: Vec<WallClockEntry>,
    started: Instant,
}

impl WallClock {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            entries: Vec::new(),
            started: Instant::now(),
        }
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let result = f();
        if self.enabled {
            self.entries.push(WallClockEntry {
                name: name.to_string(),
                ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
        result
    }

    fn finish(self, jobs: usize) {
        if !self.enabled {
            return;
        }
        let total_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let calibration = self
            .entries
            .iter()
            .find(|e| e.name == "calibration")
            .map(|e| e.ms)
            .unwrap_or(0.0);
        for e in &self.entries {
            println!("wall-clock {:<12} {:>10.1} ms", e.name, e.ms);
        }
        println!(
            "wall-clock {:<12} {:>10.1} ms ({jobs} jobs)",
            "total", total_ms
        );
        write_json(
            "BENCH_timings.json",
            &json_report::timings_json(jobs, calibration, &self.entries, total_ms),
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match scenario::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", scenario::usage());
            return ExitCode::from(2);
        }
    };
    let pool = ScenarioPool::new(opts.jobs);
    let mut wall = WallClock::new(opts.wall_clock);
    if wall.enabled {
        wall.time("calibration", calibration_ms);
    }
    let mut failures = Vec::new();
    for s in scenario::SCENARIOS.iter().filter(|s| (s.selected)(&opts)) {
        let out = wall.time(s.name, || (s.run)(&opts, &pool));
        print!("{}", out.text);
        if opts.json {
            for (file, json) in &out.files {
                write_json(file, json);
            }
        }
        failures.extend(out.failures.iter().map(|f| format!("{}: {f}", s.name)));
    }
    wall.finish(pool.jobs());
    println!("\n(Figures 1 and 2 are architecture diagrams; run `cargo run --example address_space` and `cargo run --example fault_walkthrough` for their executable equivalents.)");
    for f in &failures {
        eprintln!("gate failed: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
