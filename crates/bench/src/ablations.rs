//! Ablation sweeps for the design choices DESIGN.md calls out.
//!
//! Each function isolates one mechanism and varies it, holding the rest
//! of the system fixed:
//!
//! 1. **Manager execution mode** — the faulting-process vs server gap of
//!    Table 1 rows 1–2.
//! 2. **Security zeroing** — the Ultrix per-allocation zero-fill tax that
//!    V++ only pays across users.
//! 3. **Transfer unit** — V++'s 4 KB vs Ultrix's 8 KB I/O units.
//! 4. **Protection-change batching** — the default manager's batched
//!    re-enable that amortises reference-sampling faults (§2.3).
//! 5. **Replacement policy** — clock vs FIFO vs LRU vs random, as
//!    manager-level code (§2.2 lets every application pick).
//! 6. **Prefetch depth** — application-directed read-ahead overlap.
//! 7. **Memory market** — long-run allocation shares track income shares.
//! 8. **Page coloring** — constraint-based allocation vs first-fit.
//! 9. **DBMS fault latency** — where transparent paging crosses over
//!    regeneration.

use epcm_baseline::UltrixVm;
use epcm_core::types::{AccessKind, ManagerId, SegmentKind, UserId};
use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_managers::coloring::{audit_colors, coloring_manager};
use epcm_managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm_managers::generic::{GenericManager, PlainSpec};
use epcm_managers::policy::{ClockPolicy, FifoPolicy, LruPolicy, RandomPolicy, ReplacementPolicy};
use epcm_managers::prefetch::prefetch_manager;
use epcm_managers::spcm::AllocationPolicy;
use epcm_managers::{Machine, ManagerMode, MarketConfig, MemoryMarket};
use epcm_sim::clock::Micros;
use epcm_sim::cost::CostModel;
use epcm_sim::disk::Device;
use epcm_trace::json::{JsonArray, JsonObject};

use crate::pool::{Job, ScenarioPool};

/// 1. Fault cost by manager execution mode: `(in-process, server)` µs.
pub fn manager_mode_costs() -> (Micros, Micros) {
    (
        crate::table1::vpp_minimal_fault_in_process(),
        crate::table1::vpp_minimal_fault_server(),
    )
}

/// 2. Ultrix minimal-fault cost with and without the security zero-fill:
///    `(with, without)` µs. The difference is the tax V++ avoids on
///    same-user reallocation.
pub fn zeroing_costs() -> (Micros, Micros) {
    let with = crate::table1::ultrix_minimal_fault();
    let mut costs = CostModel::decstation_5000_200();
    costs.page_zero_4k = Micros::ZERO;
    let mut vm = UltrixVm::with_config(256, costs, Device::Instant, 4);
    let heap = vm.create_region(8);
    let t0 = vm.now();
    vm.touch(heap, 0, true);
    (with, vm.now().duration_since(t0))
}

/// 3. Reading `kb` KB of cached file: `(vpp_ops, vpp_us, ultrix_ops,
///    ultrix_us)`. V++ makes twice the kernel calls (4 KB unit) yet stays
///    within a few percent on time.
pub fn transfer_unit_comparison(kb: u64) -> (u64, Micros, u64, Micros) {
    let bytes = kb * 1024;
    let mut m = Machine::with_default_manager(4096);
    m.store_mut().create("f", bytes as usize);
    let seg = m.open_file("f").expect("open");
    let mut buf = vec![0u8; 4096];
    for off in (0..bytes).step_by(4096) {
        m.uio_read(seg, off, &mut buf).expect("warm");
    }
    let t0 = m.now();
    let r0 = m.kernel_stats().uio_reads;
    for off in (0..bytes).step_by(4096) {
        m.uio_read(seg, off, &mut buf).expect("read");
    }
    let vpp_us = m.now().duration_since(t0);
    let vpp_ops = m.kernel_stats().uio_reads - r0;

    let mut vm = UltrixVm::new(4096);
    vm.store_mut().create("f", bytes as usize);
    let fh = vm.open("f").expect("open");
    vm.warm_file(fh);
    let t0 = vm.now();
    vm.read(fh, 0, bytes);
    let ultrix_us = vm.now().duration_since(t0);
    (vpp_ops, vpp_us, vm.stats().read_syscalls, ultrix_us)
}

/// 4. Protection-change batching: faults taken to re-touch `pages`
///    sampled pages for each batch width. Wider batches amortise the
///    reference-sampling cost (§2.3).
pub fn protection_batch_sweep(pages: u64, widths: &[u64]) -> Vec<(u64, u64)> {
    widths
        .iter()
        .map(|&width| {
            let mut m = Machine::new(1024);
            let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
                ManagerMode::Server,
                DefaultManagerConfig {
                    protection_batch: width,
                    sample_batch: pages,
                    ..DefaultManagerConfig::default()
                },
            )));
            m.set_default_manager(id);
            let seg = m
                .create_segment(SegmentKind::Anonymous, pages)
                .expect("segment");
            for p in 0..pages {
                m.touch(seg, p, AccessKind::Write).expect("fill");
            }
            m.tick().expect("sampling sweep revokes protection");
            let f0 = m.kernel_stats().faults_protection;
            for p in 0..pages {
                m.touch(seg, p, AccessKind::Read).expect("sampled touch");
            }
            (width, m.kernel_stats().faults_protection - f0)
        })
        .collect()
}

/// 5. Replacement policy comparison on an 80/20 hot/cold workload:
///    `(policy name, faults)` per policy. Memory holds a page quota; the
///    working set is larger, so policy quality decides the refault count.
pub fn policy_comparison(seed: u64) -> Vec<(&'static str, u64)> {
    POLICIES
        .iter()
        .map(|&(name, make)| (name, policy_fault_count(make(), seed)))
        .collect()
}

/// Builds a fresh replacement policy.
type PolicyFactory = fn() -> Box<dyn ReplacementPolicy>;

/// The policies [`policy_comparison`] races, by name.
const POLICIES: [(&str, PolicyFactory); 4] = [
    ("clock", || Box::new(ClockPolicy::new())),
    ("fifo", || Box::new(FifoPolicy::new())),
    ("lru", || Box::new(LruPolicy::new())),
    ("random", || Box::new(RandomPolicy::new(7))),
];

/// Runs one policy through the 80/20 workload of [`policy_comparison`]
/// and returns the refault count.
fn policy_fault_count(policy: Box<dyn ReplacementPolicy>, seed: u64) -> u64 {
    let quota = 32u64;
    let mut m = Machine::builder(256)
        .allocation(AllocationPolicy::Quota { per_manager: quota })
        .build();
    let id = m.register_manager(Box::new(GenericManager::with_policy(
        PlainSpec,
        ManagerMode::FaultingProcess,
        policy,
    )));
    m.set_default_manager(id);
    let seg = m
        .create_segment(SegmentKind::Anonymous, 128)
        .expect("segment");
    let mut rng = epcm_sim::rng::Rng::seed_from(seed);
    let f0 = m.kernel_stats().faults_missing;
    for _ in 0..4000 {
        // 80% of accesses to a 16-page hot set, 20% to 64 cold pages.
        let page = if rng.chance(0.8) {
            rng.below(16)
        } else {
            16 + rng.below(64)
        };
        m.touch(seg, page, AccessKind::Read).expect("touch");
    }
    m.kernel_stats().faults_missing - f0
}

/// 6. Prefetch depth sweep: elapsed time to scan a file with compute
///    between pages, per read-ahead depth. Depth 0 pays full disk latency
///    per page; deeper prefetch overlaps it with the compute.
pub fn prefetch_depth_sweep(depths: &[u64]) -> Vec<(u64, Micros)> {
    depths
        .iter()
        .map(|&depth| {
            let mut m = Machine::builder(1024).device(Device::disk_1992()).build();
            let id = m.register_manager(Box::new(prefetch_manager(depth)));
            m.set_default_manager(id);
            m.store_mut().create("data", 64 * 4096);
            let seg = m.open_file("data").expect("open");
            let t0 = m.now();
            for p in 0..64 {
                m.touch(seg, p, AccessKind::Read).expect("scan");
                m.kernel_mut().charge(Micros::from_millis(3)); // compute
            }
            (depth, m.now().duration_since(t0))
        })
        .collect()
}

/// 7. Memory market: two competing applications with incomes in ratio
///    1:2 end up holding memory in roughly that ratio. Returns
///    `(holdings_a, holdings_b)` after `seconds` of contention.
pub fn market_shares(seconds: u64) -> (u64, u64) {
    let mut market = MemoryMarket::new(MarketConfig {
        income_per_sec: 0.0,
        charge_per_mb_sec: 8.0,
        free_when_uncontended: false,
        ..MarketConfig::default()
    });
    market.open_account(ManagerId(1), Some(10.0));
    market.open_account(ManagerId(2), Some(20.0));
    let mut m = Machine::builder(768)
        .allocation(AllocationPolicy::Market {
            market,
            horizon: Micros::from_secs(2),
        })
        .build();
    let a = m.register_manager(Box::new(GenericManager::new(
        PlainSpec,
        ManagerMode::FaultingProcess,
    )));
    let b = m.register_manager(Box::new(GenericManager::new(
        PlainSpec,
        ManagerMode::FaultingProcess,
    )));
    let seg_a = m
        .create_segment_with(SegmentKind::Anonymous, 600, a, UserId(1))
        .expect("segment a");
    let seg_b = m
        .create_segment_with(SegmentKind::Anonymous, 600, b, UserId(2))
        .expect("segment b");
    let mut next_a = 0u64;
    let mut next_b = 0u64;
    for _ in 0..seconds {
        // Each app greedily tries to grow by 16 pages per second.
        for _ in 0..16 {
            if m.touch(seg_a, next_a % 600, AccessKind::Write).is_ok() {
                next_a += 1;
            }
            if m.touch(seg_b, next_b % 600, AccessKind::Write).is_ok() {
                next_b += 1;
            }
        }
        m.kernel_mut().charge(Micros::from_secs(1));
        let _ = m.tick(); // billing + forced reclamation
    }
    (m.spcm().granted_to(a), m.spcm().granted_to(b))
}

/// 8. Page coloring: `(colored mismatches, uncolored mismatches,
///    colored overcommit, uncolored overcommit)` for a same-color-hungry
///    access pattern on an 8-color cache.
pub fn coloring_comparison() -> (u64, u64, u64, u64) {
    let colors = 8;
    // Pages are first-touched in data-dependent (shuffled) order, as real
    // programs do — sequential first-touch would give a first-fit
    // allocator accidental coloring.
    let mut order: Vec<u64> = (0..64).collect();
    epcm_sim::rng::Rng::seed_from(42).shuffle(&mut order);

    // Colored manager.
    let mut m = Machine::new(1024);
    let id = m.register_manager(Box::new(coloring_manager(colors)));
    m.set_default_manager(id);
    let seg = m
        .create_segment(SegmentKind::Anonymous, 256)
        .expect("segment");
    for &p in &order {
        m.touch(seg, p, AccessKind::Write).expect("touch");
    }
    let colored = audit_colors(m.kernel(), seg, colors).expect("audit");

    // Default first-fit manager, same pattern.
    let mut m = Machine::with_default_manager(1024);
    let seg = m
        .create_segment(SegmentKind::Anonymous, 256)
        .expect("segment");
    for &p in &order {
        m.touch(seg, p, AccessKind::Write).expect("touch");
    }
    let plain = audit_colors(m.kernel(), seg, colors).expect("audit");
    (
        colored.mismatched,
        plain.mismatched,
        colored.max_overcommit(),
        plain.max_overcommit(),
    )
}

/// 11\. Mapping-table size sweep: hit rate of the kernel's global hash
/// table for a working set of `pages` translations, per table size — why
/// V++ sized it at 64 K entries.
pub fn mapping_table_sweep(pages: u64, sizes: &[usize]) -> Vec<(usize, f64)> {
    use epcm_core::translate::MappingTable;
    use epcm_workloads::scan::{AccessPattern, ReferenceStream};
    sizes
        .iter()
        .map(|&slots| {
            let mut table = MappingTable::with_capacity(slots, 32);
            let mut stream = ReferenceStream::new(AccessPattern::Random, pages, 23);
            let seg = epcm_core::SegmentId::FRAME_POOL;
            for i in 0..pages {
                table.install(seg, i.into(), epcm_core::FrameId::from_raw(i as u32));
            }
            table.reset_stats();
            for _ in 0..20_000 {
                let p = stream.next_page();
                if table.lookup(seg, p.into()).is_none() {
                    table.install(seg, p.into(), epcm_core::FrameId::from_raw(p as u32));
                }
            }
            (slots, table.stats().hit_rate())
        })
        .collect()
}

/// 10\. TLB size sweep: hit rate of a uniform random reference stream over
/// `working_set` pages for each TLB size.
pub fn tlb_sweep(working_set: u64, sizes: &[usize]) -> Vec<(usize, f64)> {
    use epcm_core::translate::Tlb;
    use epcm_workloads::scan::{AccessPattern, ReferenceStream};
    sizes
        .iter()
        .map(|&entries| {
            let mut tlb = Tlb::with_entries(entries);
            let mut stream = ReferenceStream::new(AccessPattern::Random, working_set, 17);
            let seg = epcm_core::SegmentId::FRAME_POOL;
            for _ in 0..20_000 {
                tlb.access(seg, stream.next_page().into());
            }
            (entries, tlb.stats().hit_rate())
        })
        .collect()
}

/// 9. DBMS fault-latency sweep: average response for the paging and
///    regeneration strategies as the per-page fault delay grows. Returns
///    `(delay_ms, paging_avg_ms, regen_avg_ms)` triples; regeneration is
///    flat while paging grows, which is the paper's concluding argument.
pub fn dbms_fault_sweep(delays_ms: &[u64]) -> Vec<(u64, f64, f64)> {
    dbms_fault_sweep_at(SweepScale::Quick, delays_ms)
}

/// Scale at which the DBMS fault-latency sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepScale {
    /// Reduced transaction counts — unit tests and quick sanity renders.
    #[default]
    Quick,
    /// The full §3.3 transaction counts, as run by `reproduce --ablations`.
    Paper,
}

impl SweepScale {
    fn dbms_config(self, strategy: IndexStrategy, delay_ms: u64) -> DbmsConfig {
        let mut cfg = match self {
            SweepScale::Quick => DbmsConfig::quick(strategy),
            SweepScale::Paper => DbmsConfig::paper(strategy),
        };
        cfg.fault_delay = Micros::from_millis(delay_ms);
        cfg
    }

    fn label(self) -> &'static str {
        match self {
            SweepScale::Quick => "quick",
            SweepScale::Paper => "paper",
        }
    }
}

/// [`dbms_fault_sweep`] at an explicit [`SweepScale`].
pub fn dbms_fault_sweep_at(scale: SweepScale, delays_ms: &[u64]) -> Vec<(u64, f64, f64)> {
    let average =
        |strategy, ms| epcm_dbms::engine::run(&scale.dbms_config(strategy, ms)).average_ms();
    delays_ms
        .iter()
        .map(|&ms| {
            (
                ms,
                average(IndexStrategy::Paging, ms),
                average(IndexStrategy::Regeneration, ms),
            )
        })
        .collect()
}

/// Every ablation's measurements: what `reproduce --ablations` prints
/// and writes to `BENCH_ablations.json`. The numbers name the sweeps
/// above.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AblationReport {
    /// Scale of the DBMS fault-latency sweep.
    pub scale: SweepScale,
    /// 1. `(in-process, server)` minimal-fault cost.
    pub manager_mode: (Micros, Micros),
    /// 2. Ultrix minimal-fault cost `(with, without)` security zeroing.
    pub zeroing: (Micros, Micros),
    /// 3. A 64 KB cached read: `(V++ ops, V++ time, Ultrix ops, Ultrix time)`.
    pub transfer_unit: (u64, Micros, u64, Micros),
    /// 4. `(batch width, sampling faults)` over 64 sampled pages.
    pub protection_batch: Vec<(u64, u64)>,
    /// 5. `(policy, faults)` on the 80/20 workload.
    pub policies: Vec<(&'static str, u64)>,
    /// 6. `(read-ahead depth, scan time)`.
    pub prefetch: Vec<(u64, Micros)>,
    /// 7. Holdings of the applications with incomes 10 and 20.
    pub market: (u64, u64),
    /// 8. `(colored, first-fit)` mismatches, then `(colored, first-fit)`
    ///    overcommit.
    pub coloring: (u64, u64, u64, u64),
    /// 9. `(fault delay ms, paging avg ms, regeneration avg ms)`.
    pub dbms_fault_sweep: Vec<(u64, f64, f64)>,
    /// 10. `(TLB entries, hit rate)`.
    pub tlb: Vec<(usize, f64)>,
    /// 11. `(mapping-table slots, hit rate)`.
    pub mapping_table: Vec<(usize, f64)>,
}

/// How a measured point lands in the report.
type Record = Box<dyn FnOnce(&mut AblationReport) + Send>;

/// One pool job: measures a point on whichever worker claims it and
/// returns how to record it, so the report is assembled in declared
/// order for any worker count.
fn point<'a, T: Send + 'static>(
    measure: impl FnOnce() -> T + Send + 'a,
    record: impl FnOnce(&mut AblationReport, T) + Send + 'static,
) -> Job<'a, Record> {
    Box::new(move || {
        let value = measure();
        Box::new(move |report: &mut AblationReport| record(report, value)) as Record
    })
}

/// Measures every ablation, fanning independent sweep points across the
/// pool. The report is identical for any worker count.
pub fn results_with(pool: &ScenarioPool, scale: SweepScale) -> AblationReport {
    let mut points = vec![
        point(manager_mode_costs, |r, v| r.manager_mode = v),
        point(zeroing_costs, |r, v| r.zeroing = v),
        point(|| transfer_unit_comparison(64), |r, v| r.transfer_unit = v),
        point(
            || protection_batch_sweep(64, &[1, 4, 16, 64]),
            |r, v| r.protection_batch = v,
        ),
    ];
    for (name, make) in POLICIES {
        points.push(point(
            move || (name, policy_fault_count(make(), 3)),
            |r, v| r.policies.push(v),
        ));
    }
    for depth in [0u64, 2, 4, 8, 16] {
        points.push(point(
            move || prefetch_depth_sweep(&[depth])[0],
            |r, v| r.prefetch.push(v),
        ));
    }
    points.push(point(|| market_shares(100), |r, v| r.market = v));
    points.push(point(coloring_comparison, |r, v| r.coloring = v));
    points.push(point(
        || mapping_table_sweep(4096, &[1024, 8192, 65_536]),
        |r, v| r.mapping_table = v,
    ));
    points.push(point(
        || tlb_sweep(128, &[16, 64, 256, 512]),
        |r, v| r.tlb = v,
    ));
    for ms in [2u64, 6, 12, 20] {
        points.push(point(
            move || dbms_fault_sweep_at(scale, &[ms])[0],
            |r, v| r.dbms_fault_sweep.push(v),
        ));
    }
    let mut report = AblationReport {
        scale,
        ..AblationReport::default()
    };
    for record in pool.run(points) {
        record(&mut report);
    }
    report
}

/// Renders every ablation as one report.
pub fn render(report: &AblationReport) -> String {
    let mut out = String::from("\n=== Ablations ===\n");
    let (inproc, server) = report.manager_mode;
    out.push_str(&format!(
        "manager mode:       in-process fault {inproc}, server fault {server} ({}x)\n",
        server.as_micros() / inproc.as_micros().max(1)
    ));
    let (with, without) = report.zeroing;
    out.push_str(&format!(
        "security zeroing:   Ultrix fault {with} with zeroing, {without} without\n"
    ));
    let (vops, vus, uops, uus) = report.transfer_unit;
    out.push_str(&format!(
        "transfer unit 64KB: V++ {vops} ops / {vus}; Ultrix {uops} ops / {uus}\n"
    ));
    out.push_str("protection batching (64 sampled pages):\n");
    for (w, faults) in &report.protection_batch {
        out.push_str(&format!("  batch {w:>2}: {faults} sampling faults\n"));
    }
    out.push_str("replacement policy (80/20 workload, 4000 touches):\n");
    for (name, faults) in &report.policies {
        out.push_str(&format!("  {name:<7} {faults} faults\n"));
    }
    out.push_str("prefetch depth (64-page scan, 3 ms compute/page):\n");
    for (d, t) in &report.prefetch {
        out.push_str(&format!("  depth {d:>2}: {t}\n"));
    }
    let (a, b) = report.market;
    out.push_str(&format!(
        "memory market:      incomes 10:20 -> holdings {a}:{b} (ratio {:.2})\n",
        b as f64 / a.max(1) as f64
    ));
    let (cm, pm, co, po) = report.coloring;
    out.push_str(&format!(
        "page coloring:      mismatches {cm} vs {pm}; overcommit {co} vs {po} (colored vs first-fit)\n"
    ));
    out.push_str("mapping-table size (4096 live translations):\n");
    for (slots, rate) in &report.mapping_table {
        out.push_str(&format!(
            "  {slots:>6} slots: {:.1}% hit rate\n",
            rate * 100.0
        ));
    }
    out.push_str("TLB reach (random refs over 128 pages):\n");
    for (entries, rate) in &report.tlb {
        out.push_str(&format!(
            "  {entries:>3} entries: {:.1}% hit rate\n",
            rate * 100.0
        ));
    }
    out.push_str("DBMS fault-delay sweep (avg ms, paging vs regeneration):\n");
    for (ms, paging, regen) in &report.dbms_fault_sweep {
        out.push_str(&format!(
            "  {ms:>2} ms faults: paging {paging:>7.0}, regeneration {regen:>5.0}\n"
        ));
    }
    out
}

/// The ablations as a machine-readable JSON document
/// (`BENCH_ablations.json`), one field per sweep.
pub fn ablations_json(report: &AblationReport) -> String {
    fn rows<T>(items: &[T], row: impl Fn(&T) -> JsonObject) -> String {
        let mut array = JsonArray::new();
        for item in items {
            array.push_raw(row(item).finish());
        }
        array.finish()
    }
    let (inproc, server) = report.manager_mode;
    let (with, without) = report.zeroing;
    let (vops, vus, uops, uus) = report.transfer_unit;
    let (a, b) = report.market;
    let (cm, pm, co, po) = report.coloring;
    JsonObject::new()
        .string("bench", "ablations")
        .string("dbms_scale", report.scale.label())
        .raw(
            "manager_mode",
            JsonObject::new()
                .u64("in_process_fault_us", inproc.as_micros())
                .u64("server_fault_us", server.as_micros())
                .finish(),
        )
        .raw(
            "security_zeroing",
            JsonObject::new()
                .u64("ultrix_fault_us", with.as_micros())
                .u64("ultrix_fault_unzeroed_us", without.as_micros())
                .finish(),
        )
        .raw(
            "transfer_unit_64kb",
            JsonObject::new()
                .u64("vpp_ops", vops)
                .u64("vpp_us", vus.as_micros())
                .u64("ultrix_ops", uops)
                .u64("ultrix_us", uus.as_micros())
                .finish(),
        )
        .raw(
            "protection_batching",
            rows(&report.protection_batch, |&(width, faults)| {
                JsonObject::new()
                    .u64("batch", width)
                    .u64("sampling_faults", faults)
            }),
        )
        .raw(
            "replacement_policy",
            rows(&report.policies, |&(name, faults)| {
                JsonObject::new()
                    .string("policy", name)
                    .u64("faults", faults)
            }),
        )
        .raw(
            "prefetch_depth",
            rows(&report.prefetch, |&(depth, t)| {
                JsonObject::new()
                    .u64("depth", depth)
                    .u64("scan_us", t.as_micros())
            }),
        )
        .raw(
            "memory_market",
            JsonObject::new()
                .u64("holdings_income_10", a)
                .u64("holdings_income_20", b)
                .finish(),
        )
        .raw(
            "page_coloring",
            JsonObject::new()
                .u64("colored_mismatches", cm)
                .u64("first_fit_mismatches", pm)
                .u64("colored_overcommit", co)
                .u64("first_fit_overcommit", po)
                .finish(),
        )
        .raw(
            "mapping_table",
            rows(&report.mapping_table, |&(slots, rate)| {
                JsonObject::new()
                    .u64("slots", slots as u64)
                    .f64("hit_rate", rate)
            }),
        )
        .raw(
            "tlb_reach",
            rows(&report.tlb, |&(entries, rate)| {
                JsonObject::new()
                    .u64("entries", entries as u64)
                    .f64("hit_rate", rate)
            }),
        )
        .raw(
            "dbms_fault_sweep",
            rows(&report.dbms_fault_sweep, |&(ms, paging, regen)| {
                JsonObject::new()
                    .u64("fault_delay_ms", ms)
                    .f64("paging_avg_ms", paging)
                    .f64("regeneration_avg_ms", regen)
            }),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_mode_costs_more_than_in_process() {
        let (inproc, server) = manager_mode_costs();
        assert!(server > inproc * 3);
    }

    #[test]
    fn zeroing_is_most_of_the_gap() {
        let (with, without) = zeroing_costs();
        assert_eq!(with - without, Micros::new(75));
    }

    #[test]
    fn vpp_makes_twice_the_kernel_calls() {
        let (vops, vus, uops, uus) = transfer_unit_comparison(64);
        assert_eq!(vops, 2 * uops);
        // ...but time stays within ~10%.
        let ratio = vus.as_micros() as f64 / uus.as_micros() as f64;
        assert!((0.9..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batching_amortises_sampling_faults() {
        let sweep = protection_batch_sweep(64, &[1, 4, 16, 64]);
        assert_eq!(sweep[0], (1, 64));
        assert_eq!(sweep[1], (4, 16));
        assert_eq!(sweep[2], (16, 4));
        assert_eq!(sweep[3], (64, 1));
    }

    #[test]
    fn clock_beats_reference_blind_policies_on_skewed_load() {
        let results = policy_comparison(11);
        let get = |n: &str| results.iter().find(|(m, _)| *m == n).expect("policy").1;
        // Clock reads the hardware REFERENCED bits, so it protects the
        // hot set; FIFO and random are reference-blind. (LRU here is
        // driven only by fault-time recency — without reference sampling
        // it degenerates towards FIFO, which is itself an instructive
        // ablation result.)
        assert!(
            get("clock") < get("random"),
            "clock {} random {}",
            get("clock"),
            get("random")
        );
        assert!(
            get("clock") < get("fifo"),
            "clock {} fifo {}",
            get("clock"),
            get("fifo")
        );
    }

    #[test]
    fn deeper_prefetch_is_monotonically_not_worse() {
        let sweep = prefetch_depth_sweep(&[0, 4, 16]);
        assert!(sweep[1].1 < sweep[0].1, "depth 4 beats none");
        assert!(sweep[2].1 <= sweep[1].1, "depth 16 at least as good");
    }

    #[test]
    fn market_shares_track_income() {
        // Memory only becomes contended (and the market binding) after
        // ~40 virtual seconds of growth; sample well past that.
        let (a, b) = market_shares(100);
        assert!(a > 0 && b > 0, "both apps hold memory (a={a}, b={b})");
        let ratio = b as f64 / a as f64;
        assert!(
            (1.3..3.2).contains(&ratio),
            "holdings ratio {ratio} should track the 2.0 income ratio"
        );
    }

    #[test]
    fn coloring_eliminates_mismatch() {
        let (cm, pm, co, po) = coloring_comparison();
        assert_eq!(cm, 0, "colored allocation matches every page");
        assert_eq!(co, 0, "no color overcommit under constrained allocation");
        assert!(pm > 32, "first-fit mismatches most shuffled pages: {pm}");
        let _ = po;
    }

    #[test]
    fn mapping_table_sized_like_vpp_never_misses() {
        // Pinned exactly: an undersized table thrashes (5182 of 20 000
        // lookups hit in 1024 slots), from 8 K slots up every lookup hits.
        assert_eq!(
            mapping_table_sweep(4096, &[1024, 8192, 65_536]),
            vec![(1024, 0.2591), (8192, 1.0), (65_536, 1.0)]
        );
    }

    #[test]
    fn bigger_tlb_reaches_further() {
        let sweep = tlb_sweep(128, &[16, 256]);
        assert!(
            sweep[1].1 > sweep[0].1 + 0.2,
            "256 entries {:.2} should beat 16 entries {:.2}",
            sweep[1].1,
            sweep[0].1
        );
    }

    #[test]
    fn paging_grows_with_fault_delay_while_regen_is_flat() {
        let sweep = dbms_fault_sweep(&[2, 12]);
        let (p2, r2) = (sweep[0].1, sweep[0].2);
        let (p12, r12) = (sweep[1].1, sweep[1].2);
        assert!(p12 > 2.0 * p2, "paging grows: {p2} -> {p12}");
        assert!(
            (r12 - r2).abs() < 0.5 * r2.max(1.0),
            "regen flat: {r2} -> {r12}"
        );
    }
}
