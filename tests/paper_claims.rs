//! The paper's textual claims, asserted against the reproduction. Each
//! test quotes the claim it checks.

use epcm::core::{AccessKind, SegmentKind};
use epcm::managers::Machine;
use epcm::sim::clock::Micros;
use epcm::sim::cost::CostModel;

/// §3.1: "handling the minimal page fault is faster using the faulting
/// process in V++ than through the Ultrix kernel."
#[test]
fn claim_in_process_fault_beats_ultrix() {
    let vpp = epcm_bench_table1::vpp_minimal_fault_in_process();
    let ultrix = epcm_bench_table1::ultrix_minimal_fault();
    assert!(vpp < ultrix, "{vpp} !< {ultrix}");
}

/// §3.1: "Most of the difference in cost (75 microseconds) is the cost of
/// page zeroing that the Ultrix kernel performs on each page allocation."
#[test]
fn claim_zeroing_dominates_the_gap() {
    let gap = epcm_bench_table1::ultrix_minimal_fault()
        - epcm_bench_table1::vpp_minimal_fault_in_process();
    let zero = CostModel::decstation_5000_200().page_zero_4k;
    assert_eq!(zero, Micros::new(75));
    assert!(zero >= gap.mul_f64(0.9), "zeroing {zero} vs gap {gap}");
}

/// §3.1: "the cost of a user level fault handler for a protected page
/// that simply changes the protection of the page is 152 microseconds.
/// This is over 50% higher than the cost of handling a full fault using
/// external page-cache management."
#[test]
fn claim_user_level_fault_is_cheaper_on_vpp() {
    let ultrix = epcm_bench_table1::ultrix_user_protection_fault();
    let vpp_full = epcm_bench_table1::vpp_minimal_fault_in_process();
    assert_eq!(ultrix, Micros::new(152));
    assert!(
        ultrix.as_micros() as f64 > 1.4 * vpp_full.as_micros() as f64,
        "{ultrix} not >50% above {vpp_full}"
    );
}

/// §3.1: "The V++ write cost is 34% less than ULTRIX."
#[test]
fn claim_write_cost_34_percent_less() {
    let vpp = epcm_bench_table1::vpp_write_4k().as_micros() as f64;
    let ultrix = epcm_bench_table1::ultrix_write_4k().as_micros() as f64;
    let reduction = (ultrix - vpp) / ultrix;
    assert!((reduction - 0.34).abs() < 0.02, "reduction {reduction:.2}");
}

/// §3.1: "The V++ read cost is 5.2% higher than ULTRIX for reads."
#[test]
fn claim_read_cost_5_percent_higher() {
    let vpp = epcm_bench_table1::vpp_read_4k().as_micros() as f64;
    let ultrix = epcm_bench_table1::ultrix_read_4k().as_micros() as f64;
    let increase = (vpp - ultrix) / ultrix;
    assert!((increase - 0.052).abs() < 0.01, "increase {increase:.3}");
}

/// §3.2: "The cost of the V++ process-level handling of page faults is a
/// small percentage of program execution time ... (1.9% for diff, 0.63%
/// for uncompress and 0.35% for latex)."
#[test]
fn claim_manager_overhead_percentages() {
    let paper = [0.019, 0.0063, 0.0035];
    for (result, &expected) in epcm_bench_table23::results().iter().zip(&paper) {
        let measured = result.overhead_fraction();
        assert!(
            (measured - expected).abs() < 0.004,
            "{}: overhead fraction {measured:.4} vs paper {expected}",
            result.vpp.name
        );
    }
}

/// §3.2: "V++ makes twice as many read and write operations to the kernel
/// as ULTRIX" (4 KB vs 8 KB transfer units).
#[test]
fn claim_twice_the_kernel_operations() {
    for result in epcm_bench_table23::results() {
        // Within one operation of exactly 2x (a file whose size is not a
        // multiple of 8 KB rounds the Ultrix call count up).
        let read_diff = result.vpp.read_ops as i64 - 2 * result.ultrix.read_ops as i64;
        assert!(read_diff.abs() <= 1, "{}: {read_diff}", result.vpp.name);
        if result.ultrix.write_ops > 0 {
            let write_diff = result.vpp.write_ops as i64 - 2 * result.ultrix.write_ops as i64;
            assert!(write_diff.abs() <= 1, "{}: {write_diff}", result.vpp.name);
        }
    }
}

/// §5: "a small amount of paging can eliminate any performance benefit of
/// algorithms that use virtual address space just slightly in excess of
/// the amount of physical memory available" — index-with-paging loses
/// most of the index's benefit over no-index.
#[test]
fn claim_modest_paging_erases_the_index_benefit() {
    use epcm::dbms::config::{DbmsConfig, IndexStrategy};
    use epcm::dbms::engine::run;
    let no_index = run(&DbmsConfig::quick(IndexStrategy::NoIndex)).average_ms();
    let in_memory = run(&DbmsConfig::quick(IndexStrategy::InMemory)).average_ms();
    let paging = run(&DbmsConfig::quick(IndexStrategy::Paging)).average_ms();
    let full_benefit = no_index - in_memory;
    let remaining_benefit = no_index - paging;
    assert!(
        remaining_benefit < 0.35 * full_benefit,
        "paging kept {remaining_benefit:.0} of {full_benefit:.0} ms benefit"
    );
}

/// §2.1: "In a minimal configuration of the system ... application
/// processes can allocate pages directly from this initial segment,
/// obviating the need for any process-level server mechanism" — the
/// embedded/real-time configuration works with zero managers.
#[test]
fn claim_minimal_configuration_needs_no_managers() {
    use epcm::core::{Kernel, ManagerId, PageFlags, PageNumber, SegmentId, UserId};
    let mut kernel = Kernel::new(64);
    let app = kernel
        .create_segment(
            SegmentKind::Anonymous,
            UserId::SYSTEM,
            ManagerId::SYSTEM,
            16,
        )
        .unwrap();
    // Allocate straight from the boot segment, no SPCM, no managers.
    kernel
        .migrate_pages(
            SegmentId::FRAME_POOL,
            app,
            PageNumber(0),
            PageNumber(0),
            16,
            PageFlags::RW,
            PageFlags::empty(),
        )
        .unwrap();
    assert!(kernel
        .store(app, 0, b"embedded real-time application")
        .unwrap()
        .is_completed());
    assert_eq!(kernel.stats().faults(), 0, "no faults, no managers needed");
}

/// §1: the MP3D-style adaptation — an application that knows its memory
/// allotment picks the right problem size and avoids thrashing entirely.
#[test]
fn claim_knowing_memory_enables_space_time_tradeoffs() {
    // An application gets told how much memory the SPCM will grant and
    // sizes its working set accordingly; an oblivious one overshoots and
    // pages.
    let run_with = |pages: u64| {
        let mut m = Machine::builder(96)
            .device(epcm::sim::disk::Device::disk_1992())
            .build();
        let id = m.register_manager(Box::new(
            epcm::managers::default_manager::DefaultSegmentManager::with_config(
                epcm::managers::ManagerMode::Server,
                epcm::managers::DefaultManagerConfig {
                    target_free: 8,
                    low_water: 2,
                    refill_batch: 8,
                    ..Default::default()
                },
            ),
        ));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 256).unwrap();
        let t0 = m.now();
        for _round in 0..4 {
            for p in 0..pages {
                m.touch(seg, p, AccessKind::Write).unwrap();
            }
        }
        m.now().duration_since(t0)
    };
    // The informed app asks the SPCM and sizes to ~64 pages; the
    // oblivious one uses 160 and thrashes through the disk.
    let informed = run_with(64);
    let oblivious = run_with(160);
    assert!(
        oblivious > informed * 4,
        "informed {informed} vs oblivious {oblivious}"
    );
}

// Re-exported helpers so the claims read cleanly.
use epcm_bench::table1 as epcm_bench_table1;
use epcm_bench::table23 as epcm_bench_table23;
